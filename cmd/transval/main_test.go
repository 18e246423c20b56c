package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitStatus builds the command and checks that an option value it
// refuses exits 2 before any run, instead of validating with the
// placements that refuse it never run.
func TestExitStatus(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "transval")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		name   string
		args   []string
		status int
		stderr string // required on stderr
	}{
		{"negative -tbpf", []string{"-benches", "crc", "-tbpf", "-5"}, 2, "invalid Options.TBPF"},
		{"negative -tbpf on replay", []string{"-replay", "missing.ndjson", "-tbpf", "-5"}, 2, "invalid Options.TBPF"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			cmd := exec.Command(bin, tc.args...)
			cmd.Dir = t.TempDir()
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			status := 0
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				status = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if status != tc.status {
				t.Fatalf("transval %s: exit status %d, want %d\nstdout: %s\nstderr: %s",
					strings.Join(tc.args, " "), status, tc.status, stdout.String(), stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr does not contain %q:\n%s", tc.stderr, stderr.String())
			}
		})
	}
}
