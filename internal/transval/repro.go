package transval

import "fmt"

// Replay re-validates a finding's case from its serialized form
// (verifying fuzz provenance) and returns the freshly found divergence.
// A deterministic repro reproduces the same offending stage; Replay
// errors when the pipeline validates cleanly or diverges elsewhere, and
// refuses options that fail Options.Validate before any run.
func Replay(f Finding, opts Options) (*Finding, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	got, err := validate(f.Case, opts)
	if err != nil {
		return nil, err
	}
	if got == nil {
		return nil, fmt.Errorf("transval: replay of %s: pipeline validates cleanly (stage %s expected)", f.Case.Name, f.Stage)
	}
	if got.Stage != f.Stage {
		return got, fmt.Errorf("transval: replay of %s: diverged at %s, repro recorded %s", f.Case.Name, got.Stage, f.Stage)
	}
	return got, nil
}
