package emulator

// The external tests (package emulator_test) may import the observers
// built on this package; these let them run the internal tests'
// programs.
var (
	LoopProgram = loopProgram
	BaseCfg     = baseCfg
)
