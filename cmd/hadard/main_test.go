package main

import (
	"strings"
	"testing"
)

// TestParseFlagsRejectsBadValues: every flag is validated up front, in
// both serving modes, so a bad value never reaches mode-specific setup
// (main exits 2 on any of these errors).
func TestParseFlagsRejectsBadValues(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown router", []string{"-router", "bogus"}, "bogus"},
		{"unknown router, federated", []string{"-clusters", "2", "-router", "bogus"}, "bogus"},
		{"unknown fsync policy", []string{"-fsync", "bogus"}, "bogus"},
		{"unknown fsync policy with wal", []string{"-wal", "x", "-fsync", "bogus"}, "bogus"},
		{"recover without wal", []string{"-recover"}, "-recover requires -wal"},
		{"zero clusters", []string{"-clusters", "0"}, "-clusters must be at least 1"},
		{"wal with clusters", []string{"-wal", "x", "-clusters", "2"}, "-wal is not supported"},
		{"unknown clock", []string{"-clock", "bogus"}, "bogus"},
		{"unknown scheduler", []string{"-scheduler", "bogus"}, "bogus"},
		{"unknown smoke model", []string{"-smoke-model", "bogus"}, "bogus"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseFlags(tc.args)
			if err == nil {
				t.Fatalf("parseFlags(%q) accepted a bad value", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("parseFlags(%q) = %v, want an error mentioning %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestParseFlagsDefaults: the default command line is valid and maps
// onto a single-engine service without a journal.
func TestParseFlagsDefaults(t *testing.T) {
	cfg, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.clusters != 1 || cfg.opts.WAL != nil || cfg.router.Name() != "least-queue" {
		t.Errorf("defaults = %d clusters, WAL %v, router %s", cfg.clusters, cfg.opts.WAL, cfg.router.Name())
	}
}
