package main

import "io"

// runAll runs every workload in turn with the same flags, passing each
// one's output through, and returns one result whose metrics are keyed
// "workload/metric"; nil if any workload failed to set up.
func runAll(cfg config, stdout, stderr io.Writer) *result {
	all := &result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range workloadNames {
		cfg.workload = name
		r := runOne(cfg, stdout, stderr)
		if r == nil {
			return nil
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, v := range r.Metrics {
			all.Metrics[name+"/"+k] = v
		}
	}
	return all
}
