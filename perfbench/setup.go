package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// setupOnly performs a workload's set-up in this process: it generates
// the inputs and warms the process-wide caches, as a run does before
// its timed section.
func setupOnly(o options) error {
	switch o.workload {
	case "sessions":
		return warmSessions(o.cells())
	case "fleet-wide":
		return warmFleet(fleetScenario(o.seed, o.fleetSize()))
	}
	return fmt.Errorf("workload %s has no in-process set-up", o.workload)
}

// measureSetup starts this program o.setups() times in set-up mode and
// returns the median time from process start until it reported ready.
func measureSetup(o options) (float64, error) {
	var s samples
	var t0 time.Time
	for range o.setups() {
		time.Sleep(time.Until(t0.Add(setupGap)))
		cmd := exec.Command(o.self, "-setup-child", "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10), "-tiny="+strconv.FormatBool(o.tiny))
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		t0 = time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		d := time.Since(t0)
		if werr := cmd.Wait(); werr != nil || rerr != nil || strings.TrimSpace(line) != "ready" {
			return 0, fmt.Errorf("set-up child: %q, read: %v, exit: %v", line, rerr, werr)
		}
		s = append(s, d.Seconds())
	}
	return s.median(), nil
}
