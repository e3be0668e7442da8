//go:build race

package fleet

// raceEnabled reports a -race build: sync.Pool then drops recycled items
// at random, so allocation pins cannot hold.
const raceEnabled = true
