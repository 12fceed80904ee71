// Package reference stands in for the test-only reference driver.
package reference

// Run is the reference twin the tests compare against.
func Run() int { return 0 }
