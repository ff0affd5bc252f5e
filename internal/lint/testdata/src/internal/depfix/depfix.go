// Package depfix seeds the dep-api rule: one deprecated function and
// one caller that both calls it and holds it as a function value.
package depfix

// Old is the legacy entry point.
//
// Deprecated: Old is New under its pre-v2 name; call New.
func Old() int { return New() }

// New is the current entry point.
func New() int { return 1 }

// Use is the caller dep-api must flag.
func Use() int {
	f := Old           // want dep-api
	return Old() + f() // want dep-api
}
