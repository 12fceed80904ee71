// Package leak is production code that wrongly runs the reference
// driver.
package leak

import "oraclefix/internal/reference" // want `production file imports oraclefix/internal/reference; the reference driver is a test-only oracle`

// Cluster should call the engine, not its oracle.
func Cluster() int { return reference.Run() }
