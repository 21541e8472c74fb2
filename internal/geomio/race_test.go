//go:build race

package geomio

// The race detector slows the one-goroutine random sweep tenfold and has
// nothing in it to find.
func init() { randomBits /= 10 }
