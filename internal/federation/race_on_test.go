//go:build race

package federation

// raceEnabled reports a -race build, whose instrumentation allocates on its
// own account: allocation bounds are not checked under it.
const raceEnabled = true
