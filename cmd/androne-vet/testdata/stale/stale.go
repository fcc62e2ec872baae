// Package stale is a clean package carrying one suppression that no
// analyzer fires on: the androne-vet driver must report it and fail.
package stale

// Count holds no lock, so the locksafe suppression below is dead weight.
func Count(xs []int) int {
	return len(xs) //vet:allow locksafe nothing here holds a lock
}
