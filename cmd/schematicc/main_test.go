package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestNegativeProfileRunsIsUsageError: a negative -profile-runs is a
// flag mistake. The command rejects it with the usage exit status before
// it reads the source file, which here does not even exist.
func TestNegativeProfileRunsIsUsageError(t *testing.T) {
	bin := build(t)
	var stdout, stderr strings.Builder
	cmd := exec.Command(bin, "-profile-runs", "-1", filepath.Join(t.TempDir(), "missing.mc"))
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("schematicc -profile-runs -1: %v, want exit status 2\nstderr: %s", err, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout = %q, want nothing", stdout.String())
	}
	if !strings.Contains(stderr.String(), "-profile-runs must not be negative") {
		t.Errorf("stderr does not name the flag:\n%s", stderr.String())
	}
}

// TestTechniqueResolvedOnce: the technique name is resolved once, so
// "none" with a TBPF compiles the front end without sizing anything,
// and the display-name spelling a repro file stores places exactly as
// the lowercase one does, static validation included.
func TestTechniqueResolvedOnce(t *testing.T) {
	bin := build(t)
	crc := filepath.Join("..", "..", "internal", "bench", "programs", "crc.mc")
	run := func(t *testing.T, args ...string) (stdout, stderr string) {
		t.Helper()
		var out, errb strings.Builder
		cmd := exec.Command(bin, append(args, crc)...)
		cmd.Stdout, cmd.Stderr = &out, &errb
		if err := cmd.Run(); err != nil {
			t.Fatalf("schematicc %v: %v\nstderr: %s", args, err, errb.String())
		}
		return out.String(), errb.String()
	}

	t.Run("none with a TBPF", func(t *testing.T) {
		front, _ := run(t, "-technique", "none")
		if got, _ := run(t, "-technique", "none", "-tbpf", "10000"); got != front {
			t.Errorf("-technique none -tbpf 10000 printed different IR than -technique none")
		}
	})
	t.Run("display name", func(t *testing.T) {
		want, _ := run(t, "-technique", "schematic", "-budget", "3000")
		got, stderr := run(t, "-technique", "Schematic", "-budget", "3000")
		if got != want {
			t.Errorf("-technique Schematic printed different IR than -technique schematic")
		}
		if !strings.Contains(stderr, "static validation passed") {
			t.Errorf("-technique Schematic skipped static validation:\n%s", stderr)
		}
	})
}

// build compiles the command into a temporary directory.
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "schematicc")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}
