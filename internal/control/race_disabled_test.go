//go:build !race

package control

import "testing"

// skipIfRace is a no-op without -race; see the race-build variant.
func skipIfRace(t *testing.T) { t.Helper() }
