package httpx

import (
	"fmt"
	"io"
)

// Metric is one unlabelled sample in the Prometheus text exposition
// format.
type Metric struct {
	Name, Help, Type string
	Value            float64
}

// Counter returns a counter sample.
func Counter(name, help string, v float64) Metric {
	return Metric{Name: name, Help: help, Type: "counter", Value: v}
}

// Gauge returns a gauge sample.
func Gauge(name, help string, v float64) Metric {
	return Metric{Name: name, Help: help, Type: "gauge", Value: v}
}

// WriteProm writes each metric as its HELP and TYPE lines followed by
// the sample, the value formatted with %g. It stops at, and returns, the
// first write error.
func WriteProm(w io.Writer, metrics []Metric) error {
	for _, m := range metrics {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n",
			m.Name, m.Help, m.Name, m.Type, m.Name, m.Value); err != nil {
			return err
		}
	}
	return nil
}
