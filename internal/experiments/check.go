package experiments

import "fmt"

// GatedProbes are the probes the CI smoke step and the `pwbench -check`
// regression guard track across PRs: one per polynomial cell family, at
// the sizes fast enough for every push.
var GatedProbes = []string{
	"Fig3_MembMatching_128",
	"Thm32_UniqGTable_128",
	"Thm41_ContFreeze_64",
	"WSD_Count_1M",
	"WSD_Memb_1M",
	"WSD_Poss_1M",
	"WSDQuery_Select_1M",
	"WSDQuery_Project_1M",
	"WSDQuery_Join_1M",
	"WSAlgebra_Possible_1M",
	"WSAlgebra_ChoiceOf_1M",
	"WSAlgebra_Planned_1M",
	"WSDAttr_Count_2p100",
	"WSDAttr_Memb_2p100",
	"WSDAttr_Query_2p100",
	"WSDUpdate_Incremental_1M",
	"WSDUpdate_Full_1M",
	"ServerCertAns_Cached_1M",
	"ServerCertAns_Uncached_1M",
	"ServerHTTP_FactProbe_w8",
	"ServerHTTP_FactProbe_traced",
	"ServerHTTP_FactProbe_explain",
}

// CheckTolerance is the relative ns/op slack the regression guard allows
// before declaring a regression (0.25 = 25% slower than baseline).
const CheckTolerance = 0.25

// AllocSlack is the allocs/op headroom the guard allows over the
// baseline. testing.B reports allocs/op as a truncated per-iteration
// average, so allocations made once per run (setup, worker goroutines,
// runtime background work) tip it by one depending on the iteration
// count; the same code measured 13520 and 13521 on WSDUpdate_Full_1M.
// Anything beyond that is an allocation the code makes per operation.
const AllocSlack = 1

// Check compares current probe results against a baseline and returns one
// message per regression: a gated probe whose ns/op exceeds baseline by
// more than tolerance, a gated probe whose allocs/op exceeds the
// baseline's (beyond AllocSlack; a baseline entry without an allocs/op
// figure is gated on ns/op only), or a gated probe missing from either
// run. Allocs/op does not depend on the machine, so unlike ns/op it
// gates exactly across runners. An empty result means the gate passes.
func Check(baseline, current []BenchResult, tolerance float64) []string {
	base := make(map[string]BenchResult, len(baseline))
	for _, r := range baseline {
		base[r.Name] = r
	}
	cur := make(map[string]BenchResult, len(current))
	for _, r := range current {
		cur[r.Name] = r
	}
	var regressions []string
	for _, name := range GatedProbes {
		b, okB := base[name]
		c, okC := cur[name]
		switch {
		case !okB:
			regressions = append(regressions,
				fmt.Sprintf("%s: missing from baseline — regenerate it with `pwbench -bench -json`", name))
		case !okC:
			regressions = append(regressions,
				fmt.Sprintf("%s: missing from current run", name))
		case b.Workers != c.Workers:
			// A parallel baseline against a sequential rerun (or vice
			// versa) compares different engines; refuse rather than
			// report a phantom regression. Baselines predating the
			// workers field read as 0 and land here too.
			regressions = append(regressions,
				fmt.Sprintf("%s: worker-count mismatch (baseline %d, current %d) — regenerate the baseline with the default -workers",
					name, b.Workers, c.Workers))
		default:
			if c.NsPerOp > b.NsPerOp*(1+tolerance) {
				regressions = append(regressions,
					fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f ns/op (%+.1f%%, tolerance %.0f%%)",
						name, c.NsPerOp, b.NsPerOp,
						100*(c.NsPerOp-b.NsPerOp)/b.NsPerOp, 100*tolerance))
			}
			if b.AllocsPerOp > 0 && c.AllocsPerOp > b.AllocsPerOp+AllocSlack {
				regressions = append(regressions,
					fmt.Sprintf("%s: %d allocs/op vs baseline %d allocs/op (%+d)",
						name, c.AllocsPerOp, b.AllocsPerOp, c.AllocsPerOp-b.AllocsPerOp))
			}
		}
	}
	return regressions
}
