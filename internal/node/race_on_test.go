//go:build race

package node

// The race detector changes what allocates: the allocation gates skip.
const raceEnabled = true
