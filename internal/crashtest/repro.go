package crashtest

// Replay rebuilds a finding's case from its serialized form (verifying
// fuzz provenance) and re-executes its schedule. The returned outcome's
// class matching f.Class is the determinism check replay tools assert.
func Replay(f Finding) (Outcome, error) {
	b, err := build(f.Case)
	if err != nil {
		return Outcome{}, err
	}
	// The replay bound mirrors the hunt's: generous relative to the
	// baseline so only genuine non-termination trips it.
	baseline := b.runOnce(nil, 0)
	var maxSteps int64
	if baseline.Res != nil {
		maxSteps = stepCap(baseline.Res.Steps)
	}
	return b.runSpec(f.Schedule, maxSteps)
}
