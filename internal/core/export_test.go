package core

// Hooks for the external tests in package core_test, which load the fuzz
// corpus through internal/check (itself an importer of core).
var (
	RunAttempts = runAttempts
	ReportDiff  = reportDiff
	RegsDiff    = regsDiff
)

// RaceEnabled reports whether the tests run under the race detector.
const RaceEnabled = raceEnabled
