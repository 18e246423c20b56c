package main

import (
	"errors"
	"strings"
	"testing"

	"schematic/internal/emulator"
)

// TestBuildConfigTBPFWithInject: -tbpf and -inject used together must
// produce one valid composed schedule.
func TestBuildConfigTBPFWithInject(t *testing.T) {
	cfg, err := buildConfig(0, 50_000, "step@120,mid-save@2", "", 2048)
	if err != nil {
		t.Fatalf("buildConfig(-tbpf -inject): %v", err)
	}
	if cfg.Schedule == nil {
		t.Error("Schedule is nil, want composed exhaustion+periodic+trace")
	}
	if !cfg.Intermittent || cfg.EB <= 0 {
		t.Errorf("Intermittent=%v EB=%g, want intermittent with positive EB", cfg.Intermittent, cfg.EB)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("composed config fails Validate: %v", err)
	}
}

// TestBuildConfigValidates: flag mistakes surface as ConfigError from
// buildConfig itself, before any program is loaded or run.
func TestBuildConfigValidates(t *testing.T) {
	if _, err := buildConfig(0, 0, "", "", -1); !errors.Is(err, emulator.ErrInvalidConfig) {
		t.Errorf("negative vmsize: got %v, want ErrInvalidConfig", err)
	}
	if _, err := buildConfig(3000, 0, "step@zero", "", 2048); err == nil {
		t.Error("malformed -inject spec: got nil error")
	}
	for _, tc := range []struct {
		eb     float64
		period int64
		inject string
		power  string
	}{
		{3000, 0, "", ""},
		{0, 100, "", ""},
		{0, 0, "step@7", ""},
		{3000, 100, "step@7", ""},
		{3000, 0, "", "solar:seed=7"},
		{3000, 100, "step@7", "rf"},
		{0, 0, "", "duty:cap=2500"},
		{0, 0, "", "periodic:cycles=9000"},
	} {
		cfg, err := buildConfig(tc.eb, tc.period, tc.inject, tc.power, 2048)
		if err != nil {
			t.Errorf("buildConfig(%g,%d,%q,%q): %v", tc.eb, tc.period, tc.inject, tc.power, err)
			continue
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("buildConfig(%g,%d,%q,%q) returned invalid config: %v", tc.eb, tc.period, tc.inject, tc.power, err)
		}
	}
}

// TestBuildConfigPower: -power routes through the shared spec grammar.
func TestBuildConfigPower(t *testing.T) {
	// A harvested spec without -eb or cap= has no capacitor size.
	if _, err := buildConfig(0, 0, "", "solar", 2048); err == nil || !strings.Contains(err.Error(), "capacitor size") {
		t.Errorf("harvested spec without sizing: got %v", err)
	}
	// cap= pins the budget.
	cfg, err := buildConfig(0, 0, "", "duty:cap=2500", 2048)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.EB != 2500 || !cfg.Intermittent || cfg.Schedule == nil {
		t.Errorf("cap= spec: EB=%g intermittent=%v schedule=%v", cfg.EB, cfg.Intermittent, cfg.Schedule)
	}
	if !strings.Contains(cfg.Schedule.Name(), "harvest(duty") {
		t.Errorf("schedule name %q", cfg.Schedule.Name())
	}
	// Malformed specs fail before anything runs.
	if _, err := buildConfig(3000, 0, "", "warp:speed=9", 2048); err == nil {
		t.Error("bad -power spec: got nil error")
	}
	// -power with -tbpf and -inject composes all three.
	cfg, err = buildConfig(3000, 20_000, "step@9", "rf:seed=2", 2048)
	if err != nil {
		t.Fatal(err)
	}
	name := cfg.Schedule.Name()
	for _, want := range []string{"harvest(rf", "periodic", "trace"} {
		if !strings.Contains(name, want) {
			t.Errorf("composed schedule %q lacks %s member", name, want)
		}
	}
}
