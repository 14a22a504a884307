//go:build race

package core

// raceEnabled reports a -race build, whose instrumented runtime
// allocates on its own and so cannot hold an allocation budget.
const raceEnabled = true
