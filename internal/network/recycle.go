//go:build !norecycle

package network

// recycle makes Pool.Put keep records for reuse (see Pool.Put and
// norecycle.go).
const recycle = true
