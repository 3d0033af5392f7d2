package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// selfcheck runs two sets of opt.selfcheck repetitions of each named
// workload — one child process per repetition, every repetition on its own
// seed, as the pipeline does — and compares the sets per end-to-end metric:
// medians, quartile spread as a share of the median, and how much worse the
// second median is than the first. It fails when a spread or a worsening
// exceeds the metric's bound, and marks spreads above a third of it.
func selfcheck(opt options, names []string, log io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(log, "bench: selfcheck: %v\n", err)
		return 1
	}
	failed := false
	for _, name := range names {
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for rep := 0; rep < opt.selfcheck; rep++ {
				seed := opt.seed + int64(set*opt.selfcheck+rep)
				res, err := runChild(self, name, seed, opt.seconds)
				if err != nil {
					fmt.Fprintf(log, "bench: selfcheck %s seed %d: %v\n", name, seed, err)
					return 1
				}
				if !res.Correct || res.Failed > 0 {
					fmt.Fprintf(log, "bench: selfcheck %s seed %d: %d of %d operations failed\n", name, seed, res.Failed, res.Attempted)
					failed = true
				}
				for k, m := range res.Metrics {
					sets[set][k] = append(sets[set][k], m.Value)
				}
				fmt.Fprintf(log, "# %s set %d rep %d/%d done\n", name, set+1, rep+1, opt.selfcheck)
			}
		}
		fmt.Fprintf(log, "%s: two sets of %d runs, %d s each\n", name, opt.selfcheck, opt.seconds)
		fmt.Fprintf(log, "  %-17s %36s  %36s %8s %8s %8s %6s\n", "metric", "set A: q1 / median / q3", "set B: q1 / median / q3", "spreadA", "spreadB", "B worse", "bound")
		for _, d := range endToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			a1, ma, a3 := quartiles(a)
			b1, mb, b3 := quartiles(b)
			worse := 0.0
			if ma != 0 {
				worse = (mb - ma) / ma
				if d.Better == "higher" {
					worse = -worse
				}
			}
			sa, sb := spread(a), spread(b)
			mark := ""
			switch {
			case worse > d.Bound, d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound):
				mark = " FAIL"
				failed = true
			case d.Name != "setup_s" && (sa > d.Bound/3 || sb > d.Bound/3):
				mark = " wide"
			}
			fmt.Fprintf(log, "  %-17s %11.4g /%11.4g /%11.4g  %11.4g /%11.4g /%11.4g %7.1f%% %7.1f%% %+7.1f%% %5.0f%%%s\n",
				d.Name, a1, ma, a3, b1, mb, b3, 100*sa, 100*sb, 100*worse, 100*d.Bound, mark)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// runChild runs one untraced repetition in a child process and parses the
// result line. The child is waited for before returning.
func runChild(self, workload string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("no result line after %v (%v): %s", time.Since(start).Round(time.Second), runErr, errb.String())
	}
	return &res, nil
}

// quartiles follows Python's statistics.quantiles(values, n=4), the rule
// the pipeline applies.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	if ld < 2 {
		if ld == 1 {
			return data[0], data[0], data[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*(ld+1) - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}
