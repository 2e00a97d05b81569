//go:build norecycle

package network

// recycle is off under the norecycle tag: Pool.Put drops every record,
// so two builds that differ only in recycling can be compared output
// for output (scripts/verify.sh).
const recycle = false
