//go:build race

package transport

// raceEnabled reports a -race build. The race detector drops sync.Pool
// entries at random, so encoding/json's encoder pool misses and allocation
// counts drift above a plain build's.
const raceEnabled = true
