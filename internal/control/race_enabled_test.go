//go:build race

package control

import "testing"

// skipIfRace skips allocation-budget tests: the race detector's
// instrumentation allocates on its own, so testing.AllocsPerRun counts
// would measure it, not the code. The budgets run in every non-race
// invocation.
func skipIfRace(t *testing.T) {
	t.Helper()
	t.Skip("allocation budgets are meaningless under -race (covered by the non-race suite)")
}
