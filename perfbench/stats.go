package main

import (
	"fmt"
	"math"
	"regexp"
	"slices"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// metricName is the grammar every reported metric name follows: it
// starts with a letter or digit and uses only letters, digits, '_',
// '.' and '-', at most 64 characters.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricUnit is the grammar of a metric's unit.
var metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// checkMetrics verifies that every name and unit follows the grammar
// and that every value is a finite number.
func checkMetrics(ms map[string]metric) error {
	for name, m := range ms {
		if !metricName.MatchString(name) {
			return fmt.Errorf("metric name %q breaks the name grammar", name)
		}
		if !metricUnit.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: unit %q breaks the unit grammar", name, m.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s: value %v is not finite", name, m.Value)
		}
	}
	return nil
}
