package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestAlgosAgreePerDataset runs the Sect. VIII-C experiment through the
// command line: one table per -datasets entry, every algorithm agreeing
// between the raw graph and the summary.
func TestAlgosAgreePerDataset(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "algos", "-datasets", "FA,PR", "-scale", "0.05"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	rows := 0
	for _, line := range strings.Split(stdout.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] != "algorithm" {
			rows++
			if f[3] != "true" {
				t.Errorf("disagreement: %q", line)
			}
		}
	}
	if tables := strings.Count(stdout.String(), "=== Sect VIII-C"); tables != 2 || rows != 8 {
		t.Fatalf("%d tables with %d rows, want 2 with 8:\n%s", tables, rows, stdout.String())
	}
}

// TestUnknownNamesExit2 checks that an unknown experiment id, -algos or
// -datasets name exits with status 2 and the list before anything runs.
func TestUnknownNamesExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-run", "fig5a,nope"},
		{"-run", "fig5a", "-algos", "slugger,nope"},
		{"-run", "algos", "-datasets", "FA,nope"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), "available:") {
			t.Errorf("%v: stdout %q, stderr %q; want nothing run and the list", args, stdout.String(), stderr.String())
		}
	}
}
