package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// Verdicts of the compare rule.
const (
	verdictBetter     = "better"
	verdictWithin     = "within"
	verdictWorse      = "WORSE"
	verdictUnresolved = "unresolved"
)

// judge applies the gate to one metric of one workload: the new value
// may be worse than the old by at most bound (a share of the old value).
// When either run's own round-to-round spread is wider than the bound
// the numbers cannot resolve a move of that size: the row is reported
// unresolved rather than passed, unless it reads better outright.
func judge(better string, bound float64, old, cur measurement) (ratio float64, verdict string) {
	if old.Value == 0 {
		return 0, verdictUnresolved
	}
	ratio = cur.Value / old.Value
	worsening := ratio - 1
	if better == "higher" {
		worsening = 1 - ratio
	}
	switch {
	case worsening < 0:
		return ratio, verdictBetter
	case max(spread(old.Q1, old.Q3, old.Value), spread(cur.Q1, cur.Q3, cur.Value)) > bound:
		return ratio, verdictUnresolved
	case worsening > bound:
		return ratio, verdictWorse
	}
	return ratio, verdictWithin
}

// judgeCount gates an event counter (retries, over-advances, unconfirmed
// DONEs): the events are rare and bursty and their count in one run is a
// small random number, so the rule is coarse. More than twice the old
// count plus the counter's slack, a share of the occasions, is WORSE.
func judgeCount(slack float64, old, cur events) string {
	switch {
	case cur.N < old.N:
		return verdictBetter
	case float64(cur.N) > 2*float64(old.N)+slack*float64(cur.Of):
		return verdictWorse
	}
	return verdictWithin
}

// printComparison prints one row per workload and end-to-end metric that
// the workload's own operations produce (reference-size values are in the
// files but gate nothing), then the failure and event counts, and returns
// the number of WORSE rows. A workload or metric that one side lacks is
// WORSE: a gate that cannot see a number must not pass it.
func printComparison(old, cur *resultFile) (worse int) {
	fmt.Printf("\n%-10s %-26s %14s %14s %-5s %16s %5s  %s\n",
		"workload", "metric", "old", "new", "unit", "new/old", "bound", "verdict")
	find := func(f *resultFile, workload string) *runResult {
		for i := range f.Results {
			if f.Results[i].Workload == workload {
				return &f.Results[i]
			}
		}
		return nil
	}
	for _, w := range workloads {
		o, r := find(old, w.Name), find(cur, w.Name)
		if o == nil && r == nil {
			continue
		}
		if o == nil || r == nil {
			worse++
			fmt.Printf("%-10s %-26s %62s  %s (workload missing from one file)\n", w.Name, "*", "", verdictWorse)
			continue
		}
		for _, m := range endToEnd {
			if !m.homeOf(w.Name) {
				continue
			}
			a, aok := o.Metrics[m.Name]
			b, bok := r.Metrics[m.Name]
			if !aok || !bok {
				worse++
				fmt.Printf("%-10s %-26s %62s  %s (metric missing from one file)\n", w.Name, m.Name, "", verdictWorse)
				continue
			}
			ratio, verdict := judge(m.Better, m.boundOn(w.Name), a, b)
			if verdict == verdictWorse {
				worse++
			}
			fmt.Printf("%-10s %-26s %14.4f %14.4f %-5s %6.3f of %-7.4g %5.2f  %s\n",
				w.Name, m.Name, a.Value, b.Value, m.Unit, ratio, a.Value, m.boundOn(w.Name), verdict)
		}
		count := func(name string, a, b int, verdict string) {
			if verdict == verdictWorse {
				worse++
			}
			if a != 0 || b != 0 {
				fmt.Printf("%-10s %-26s %14d %14d %-5s %16s %5s  %s\n", w.Name, name, a, b, "count", "", "", verdict)
			}
		}
		// Failed operations may never increase.
		failed := verdictWithin
		if r.Failed > o.Failed {
			failed = verdictWorse
		}
		count("ops_failed", o.Failed, r.Failed, failed)
		for _, c := range counters {
			a, b := o.Counters[c.Name], r.Counters[c.Name]
			count(c.Name, a.N, b.N, judgeCount(c.Slack, a, b))
		}
	}
	return worse
}

func readResults(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Header.Traced {
		return nil, fmt.Errorf("%s holds a traced run; end-to-end numbers come from untraced runs only", path)
	}
	return &f, nil
}

func compareFiles(oldPath, newPath string) error {
	old, err := readResults(oldPath)
	if err != nil {
		return err
	}
	cur, err := readResults(newPath)
	if err != nil {
		return err
	}
	// Op counts are a function of -seconds and -quick and inputs of -seed:
	// runs that differ in any of them did different work.
	a, b := old.Header, cur.Header
	if a.Seconds != b.Seconds || a.Quick != b.Quick || a.Seed != b.Seed {
		return fmt.Errorf("runs did different work: -seconds %d vs %d, -quick %v vs %v, -seed %d vs %d",
			a.Seconds, b.Seconds, a.Quick, b.Quick, a.Seed, b.Seed)
	}
	if worse := printComparison(old, cur); worse > 0 {
		return fmt.Errorf("%d row(s) WORSE", worse)
	}
	return nil
}
