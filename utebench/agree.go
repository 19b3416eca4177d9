package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// child re-executes this binary for one workload, in its own process
// tree, streams its report through and returns the parsed last line.
func child(root, name string, seed uint64, seconds float64, trace int, quiet bool) (*result, error) {
	cmd := exec.Command(os.Args[0], "-root", root, "-workload", name,
		"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	err := cmd.Run()
	if !quiet {
		os.Stdout.Write(out.Bytes())
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var last []byte
	for sc := bufio.NewScanner(&out); sc.Scan(); {
		last = append(last[:0], sc.Bytes()...)
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", name, err)
	}
	return &res, nil
}

// runAll runs every workload in turn, each in its own process tree.
func runAll(root string, seed uint64, seconds float64, trace int) int {
	rc := 0
	for _, w := range workloads {
		res, err := child(root, w.name, seed, seconds, trace, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "utebench:", err)
			rc = 1
		} else if !res.Correct {
			rc = 1
		}
	}
	return rc
}

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(root string) ([]bound, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var f struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return f.EndToEnd, nil
}

// agree is the acceptance driver's check, run locally: two interleaved
// sets (A B A B ...) of k untraced runs per workload, run i of either
// set seeded seed+i. Per workload and metric it prints both medians, how
// much worse the second is than the first, each set's quartile spread
// as a share of its median, and the bound from BENCHMARK.json. A metric
// fails when the second median is worse by more than the bound, or —
// setup_s excepted — a spread exceeds it.
func agree(root, only string, seed uint64, seconds float64, k int) int {
	bounds, err := readBounds(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "utebench:", err)
		return 1
	}
	rc := 0
	for _, w := range workloads {
		if only != "" && only != w.name {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < k; i++ {
			for s := range sets {
				res, err := child(root, w.name, seed+uint64(i), seconds, 0, true)
				if err != nil {
					fmt.Fprintln(os.Stderr, "utebench:", err)
					return 1
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "utebench: %s seed %d: %d of %d operations failed\n", w.name, seed+uint64(i), res.Failed, res.Attempted)
					rc = 1
				}
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		fmt.Printf("%s (2 x %d runs)\n  %-18s %14s %14s %8s %9s %9s %6s\n", w.name, k, "metric", "median A", "median B", "B worse", "spread A", "spread B", "bound")
		for _, bd := range bounds {
			a, b := sets[0][bd.Name], sets[1][bd.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if bd.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(a), spread(b)
			verdict := "PASS"
			if worse > bd.Bound || (bd.Name != "setup_s" && (sa > bd.Bound || sb > bd.Bound)) {
				verdict, rc = "FAIL", 1
			}
			fmt.Printf("  %-18s %14.4f %14.4f %+7.2f%% %8.2f%% %8.2f%% %5.1f%%  %s\n", bd.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*bd.Bound, verdict)
		}
	}
	return rc
}
