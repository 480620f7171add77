package main

import (
	"bytes"
	"strings"
	"testing"
)

// What entk-agent does with a command line it cannot start from: the exit
// code and what it says on stderr.
func TestRunRejectsBadCommandLines(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		code int
		says string
	}{
		{"unknown flag", []string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{"negative schedulers", []string{"-schedulers", "-1"}, 2, "-schedulers -1: negative"},
		{"unknown resource", []string{"-resource", "nowhere"}, 1, "nowhere"},
		{"bad listen address", []string{"-listen", "carrier-pigeon"}, 1, "carrier-pigeon"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, c.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.says) {
				t.Fatalf("stderr does not say %q:\n%s", c.says, stderr.String())
			}
		})
	}
}
