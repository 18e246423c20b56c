package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"schematic/internal/baselines"
	"schematic/internal/bench"
	"schematic/internal/emulator"
	"schematic/internal/ir"
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

// placedIR writes crc placed by the named technique as textual IR and
// returns its path and energy budget.
func placedIR(t *testing.T, dir, tech string) string {
	t.Helper()
	h := bench.NewHarness()
	h.ProfileRuns = 3
	bm, err := bench.ByName("crc")
	if err != nil {
		t.Fatal(err)
	}
	m, err := bm.Module()
	if err != nil {
		t.Fatal(err)
	}
	prof, err := h.Profile(context.Background(), bm)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range bench.Techniques() {
		if tt.Name() != tech {
			continue
		}
		m = ir.Clone(m)
		if err := tt.Apply(m, baselines.Params{Model: h.Model, Budget: 3000, VMSize: h.VMSize, Profile: prof}); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, tech+".ir")
		if err := os.WriteFile(path, []byte(m.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	t.Fatalf("no technique %q", tech)
	return ""
}

// TestExitStatus builds the command and checks the exit status of runs
// and of the flag combinations it rejects with a usage error.
func TestExitStatus(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "iemu")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	mementos, ratchet := placedIR(t, dir, "Mementos"), placedIR(t, dir, "Ratchet")
	record := filepath.Join(dir, "run.ndjson")
	for _, tc := range []struct {
		name   string
		args   []string
		status int
		stderr string // required on stderr
	}{
		{"harvested run", []string{"-eb", "3000", "-power", "solar", ratchet}, 0, "verdict:        completed"},
		{"two power sources", []string{"-eb", "3000", "-power", "solar+rf", ratchet}, 2, `"solar" and "rf"`},
		{"record harvested ratchet", []string{"-eb", "3000", "-power", "solar", "-record", record, ratchet}, 0, ""},
		{"record exhausted mementos", []string{"-eb", "3000", "-record", record, mementos}, 0, ""},
		{"record harvested mementos", []string{"-eb", "3000", "-power", "solar", "-record", record, mementos}, 2, "MEMENTOS trigger checkpoints"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stderr strings.Builder
			cmd := exec.Command(bin, tc.args...)
			cmd.Stderr = &stderr
			err := cmd.Run()
			status := 0
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				status = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if status != tc.status {
				t.Fatalf("iemu %s: exit status %d, want %d\nstderr: %s", strings.Join(tc.args, " "), status, tc.status, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr does not contain %q:\n%s", tc.stderr, stderr.String())
			}
		})
	}
}
