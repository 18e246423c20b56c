package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitStatus builds the command and checks the exit status of the
// power sweep and of the flag combinations and values it rejects.
func TestExitStatus(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "crashhunt")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	power := []string{"-benches", "crc", "-techs", "Ratchet", "-power", "solar"}
	type exitCase struct {
		name   string
		args   []string
		status int
		stdout string // required on stdout
		stderr string // required on stderr
	}
	// A negative worker count, case timeout or budget is refused in every
	// mode before any case runs, not taken as NumCPU workers or no bound.
	var drivers []exitCase
	for _, mode := range [][]string{{}, {"-exhaustive"}, {"-power", "solar"}} {
		for _, flag := range [][]string{{"-timeout", "-1s", "Driver.CaseTimeout"}, {"-budget", "-1s", "Driver.Budget"}, {"-jobs", "-1", "Driver.Jobs"}} {
			args := append([]string{"-benches", "crc", "-techs", "Ratchet", flag[0], flag[1]}, mode...)
			drivers = append(drivers, exitCase{"negative " + strings.Join(args[4:], " "), args, 2, "", "invalid " + flag[2]})
		}
	}
	for _, tc := range append([]exitCase{
		// The sabotaged placement already diverges under plain exhaustion:
		// the power sweep's baseline gate reports it, as the hunt does.
		{"sabotaged power sweep", append([]string{"-sabotage", "2"}, power...), 1,
			"VIOLATION crc/Ratchet under exhaustion: output-divergence", ""},
		{"clean power sweep", power, 0, "0 violation(s)", ""},
		{"-o with -power", append([]string{"-o", "repro.ndjson"}, power...), 2, "", "-power takes neither -o"},
		{"-power with -exhaustive", append([]string{"-exhaustive"}, power...), 2, "", "nor -exhaustive"},
		// A negative bound or case number is refused before any emulator
		// run, not searched, hunted as the intact placement or blamed on
		// the capacitor budget it derives.
		{"negative -max-states", []string{"-benches", "crc", "-techs", "Ratchet", "-exhaustive", "-max-states", "-1"}, 2, "", "invalid Options.MaxStates"},
		{"negative -max-depth", []string{"-benches", "crc", "-techs", "Ratchet", "-exhaustive", "-max-depth", "-1"}, 2, "", "invalid Options.MaxDepth"},
		{"negative -sabotage", []string{"-benches", "crc", "-techs", "Ratchet", "-sabotage", "-1"}, 2, "", "invalid Case.Sabotage"},
		{"negative -tbpf", []string{"-benches", "crc", "-techs", "Ratchet", "-tbpf", "-1"}, 2, "", "invalid Case.TBPF"},
	}, drivers...) {
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
				t.Fatalf("crashhunt %s: exit status %d, want %d\nstdout: %s\nstderr: %s",
					strings.Join(tc.args, " "), status, tc.status, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.stdout) {
				t.Errorf("stdout does not contain %q:\n%s", tc.stdout, stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr does not contain %q:\n%s", tc.stderr, stderr.String())
			}
		})
	}
}
