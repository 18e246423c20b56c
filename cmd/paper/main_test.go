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
// any experiment runs, so nothing reaches stdout.
func TestNegativeProfileRunsIsUsageError(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "paper")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	var stdout, stderr strings.Builder
	cmd := exec.Command(bin, "-table", "3", "-profile-runs", "-1")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("paper -profile-runs -1: %v, want exit status 2\nstderr: %s", err, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout = %q, want nothing", stdout.String())
	}
	if !strings.Contains(stderr.String(), "-profile-runs must not be negative") {
		t.Errorf("stderr does not name the flag:\n%s", stderr.String())
	}
}
