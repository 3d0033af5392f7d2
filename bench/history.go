package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"time"
)

// historyLine is one appended record: enough to plot a metric's trajectory
// across commits without re-running anything.
type historyLine struct {
	Time     string `json:"time"`
	Commit   string `json:"commit"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	// Plane says what the metrics are: "end_to_end" (CPU-plane times plus
	// modelled-plane message and byte counts) or "per_layer" (the traced
	// run's probes and counters).
	Plane     string            `json:"plane"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// appendHistory appends one JSON line for the run to opt.history.
func appendHistory(opt options, w workload, res *result) error {
	plane := "end_to_end"
	if opt.trace {
		plane = "per_layer"
	}
	line, err := json.Marshal(historyLine{
		Time: time.Now().UTC().Format(time.RFC3339), Commit: gitCommit(),
		Workload: w.name, Seed: opt.seed, Seconds: opt.seconds, Plane: plane,
		Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics,
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(opt.history, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// gitCommit names the checked-out commit, or "unknown" outside a git
// checkout (the pipeline's checkouts are not repositories).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
