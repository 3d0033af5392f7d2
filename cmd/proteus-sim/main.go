// Command proteus-sim replays declarative cluster scenarios against the
// real engine on a virtual clock. A scenario JSON names the cluster
// shape, workload mix, tenants, fault schedule and invariants; the
// runner executes it and asserts the invariant block, so hours of
// simulated traffic regression-test the whole stack in seconds of wall
// time. The paper's figures are scenario files too (scenarios/figures/):
// figure runs them on the wall clock at a preset scale.
//
// Usage:
//
//	proteus-sim run [-wall] [-v] [-json] scenario.json...
//	proteus-sim figure [-scale quick|full] [-history FILE] figure.json...
//	proteus-sim validate scenario.json...
//
// run exits 0 only if every scenario upholds its invariants. figure
// prints each figure's table, one PASS/FAIL line per predicate and mix,
// and one JSON line per run (appended to FILE with -history); it exits 0
// unless a run fails to set up or breaks its invariants, whatever the
// predicates say. validate just parses and defaults the specs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"

	"proteus/internal/scenario"
	"proteus/internal/vclock"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  proteus-sim run [-wall] [-v] [-json] scenario.json...
  proteus-sim figure [-scale quick|full] [-history FILE] figure.json...
  proteus-sim validate scenario.json...

run flags:
  -wall   replay on the wall clock instead of the virtual clock
  -v      verbose progress (faults applied, convergence, per-row losses)
  -json   print each scenario's canonical report as JSON

figure flags:
  -scale    preset scale: quick or full
  -history  append one JSON line per run to this file
`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "run":
		os.Exit(runCmd(os.Args[2:]))
	case "figure":
		os.Exit(figureCmd(os.Args[2:]))
	case "validate":
		os.Exit(validateCmd(os.Args[2:]))
	default:
		usage()
	}
}

func validateCmd(args []string) int {
	if len(args) == 0 {
		usage()
	}
	code := 0
	for _, path := range args {
		b, err := os.ReadFile(path)
		if err == nil && scenario.IsFigure(b) {
			var f *scenario.Figure
			if f, err = scenario.ParseFigure(b, scenario.Presets["quick"]); err == nil {
				fmt.Printf("%s: ok (figure %q, %d systems, %d predicates)\n", path, f.Name, len(f.Systems), len(f.Predicates))
			}
		} else if err == nil {
			var spec scenario.Spec
			if spec, err = scenario.Parse(b); err == nil {
				fmt.Printf("%s: ok (scenario %q, %d sites, %d clients)\n", path, spec.Name, spec.Sites, spec.Clients)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			code = 1
		}
	}
	return code
}

func figureCmd(args []string) int {
	fs := flag.NewFlagSet("figure", flag.ExitOnError)
	scale := fs.String("scale", "quick", "preset scale: quick or full")
	history := fs.String("history", "", "append one JSON line per run to this file")
	fs.Parse(args)
	preset, ok := scenario.Presets[*scale]
	if !ok || fs.NArg() == 0 {
		usage()
	}
	lines := io.Writer(os.Stdout)
	var hist *os.File
	if *history != "" {
		var err error
		if hist, err = os.OpenFile(*history, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		lines = io.MultiWriter(os.Stdout, hist)
	}
	enc, commit := json.NewEncoder(lines), gitCommit()
	failed := 0
	for _, path := range fs.Args() {
		f, err := scenario.LoadFigure(path, preset)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			failed++
			continue
		}
		start := time.Now()
		results, _, err := f.Run(os.Stdout)
		for _, r := range results {
			r.Scale, r.Commit = *scale, commit
			if err := enc.Encode(r); err != nil {
				fmt.Fprintf(os.Stderr, "%s: writing a run's line: %v\n", path, err)
				failed++
			}
		}
		fmt.Printf("  [%s completed in %v]\n", f.Name, time.Since(start).Round(time.Millisecond))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			failed++
		}
	}
	if hist != nil {
		if err := hist.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "proteus-sim: %d figure(s) failed\n", failed)
		return 1
	}
	return 0
}

// gitCommit names the checkout's commit, marked +dirty when the tree has
// uncommitted changes ("unknown" outside a git checkout).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
		commit += "+dirty"
	}
	return commit
}

func runCmd(args []string) int {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	wall := fs.Bool("wall", false, "replay on the wall clock")
	verbose := fs.Bool("v", false, "verbose progress")
	jsonOut := fs.Bool("json", false, "print canonical reports as JSON")
	fs.Parse(args)
	if fs.NArg() == 0 {
		usage()
	}

	failed := 0
	for _, path := range fs.Args() {
		spec, err := scenario.Load(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			failed++
			continue
		}
		opt := scenario.Options{}
		if *verbose {
			opt.Logf = func(format string, a ...any) {
				fmt.Fprintf(os.Stderr, "# %s: %s\n", spec.Name, fmt.Sprintf(format, a...))
			}
		}
		var sim *vclock.Sim
		if !*wall {
			sim = vclock.NewSim(vclock.SimConfig{})
			opt.Clock = sim
		}
		rep, err := scenario.Run(spec, opt)
		if sim != nil {
			sim.Stop()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			failed++
			continue
		}
		fmt.Println(rep.Summary())
		for _, v := range rep.Violations {
			fmt.Printf("  violation: %s\n", v)
		}
		if *jsonOut {
			os.Stdout.Write(rep.Canonical.CanonicalJSON())
		}
		if !rep.Passed() {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "proteus-sim: %d scenario(s) failed\n", failed)
		return 1
	}
	return 0
}
