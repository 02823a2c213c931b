package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"github.com/hpcnet/fobs/internal/udprt"
)

// setupEnv, when set in the environment, makes the benchmark binary a
// set-up probe: a fresh process that times one cold set-up and prints
// it. Its value is the probe's setupArgs as JSON.
const setupEnv = "PERFBENCH_SETUP_PROBE"

type setupArgs struct {
	Workload string `json:"workload"`
	Dir      string `json:"dir"`
}

type setupResult struct {
	Seconds  float64  `json:"seconds"`
	Problems []string `json:"problems"`
}

// measureSetup sets up p.setups times, each in a fresh process, and
// reports the median as setup_s. A fresh process pays what a user pays
// once, before the first transfer: the first receiver bind (bulk,
// striped) or binding the Server and starting the daemon over a fresh
// state directory (tasks), with every first-use cost on those paths.
// Process start and package initialisation are not timed, and neither is
// any transfer: data movement is what the other metrics measure.
func measureSetup(ctx context.Context, p params, dir string, rep *report) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var setups []float64
	for i := 0; i < p.setups; i++ {
		args, err := json.Marshal(setupArgs{Workload: p.name, Dir: filepath.Join(dir, fmt.Sprintf("setup-%d", i))})
		if err != nil {
			return err
		}
		cmd := exec.CommandContext(ctx, exe)
		cmd.Env = append(os.Environ(), setupEnv+"="+string(args))
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			rep.op("set-up", []string{"probe process: " + err.Error()})
			continue
		}
		var res setupResult
		if err := json.Unmarshal(out.Bytes(), &res); err != nil {
			rep.op("set-up", []string{"probe output: " + err.Error()})
			continue
		}
		if rep.op("set-up", res.Problems) {
			setups = append(setups, res.Seconds)
		}
	}
	rep.set("setup_s", median(setups))
	rep.note("setup_ms_min/p50/max", fmt.Sprintf("%.2f/%.2f/%.2f",
		1e3*percentile(setups, 0), 1e3*median(setups), 1e3*percentile(setups, 1)))
	return nil
}

// runSetupProbe is the body of a set-up probe process. It reports
// whether the environment asked for one; if it did, it has run it and
// printed its result.
func runSetupProbe() bool {
	raw, ok := os.LookupEnv(setupEnv)
	if !ok {
		return false
	}
	var a setupArgs
	if err := json.Unmarshal([]byte(raw), &a); err != nil {
		fatal(err)
	}
	p, ok := workloads[a.Workload]
	if !ok {
		fatal(fmt.Errorf("set-up probe: unknown workload %q", a.Workload))
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rep := newReport()
	var d time.Duration
	if p.tasks {
		d = tasksSetup(ctx, p, a.Dir, rep)
	} else {
		t0 := time.Now()
		l, err := udprt.Listen("127.0.0.1:0", udprt.Options{})
		d = time.Since(t0)
		if err != nil {
			rep.op("set-up", []string{"listen: " + err.Error()})
		} else {
			l.Close()
		}
	}
	b, err := json.Marshal(setupResult{Seconds: d.Seconds(), Problems: rep.errs})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	return true
}
