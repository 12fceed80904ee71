package oraclefix

import (
	"testing"

	"oraclefix/internal/reference"
)

// Tests may import the reference driver.
func TestMatchesReference(t *testing.T) {
	if Cluster(Config{}) != reference.Run() {
		t.Log("differs")
	}
}
