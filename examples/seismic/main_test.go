package main

import (
	"io"
	"testing"
)

func TestRunEndsEveryPipelineDone(t *testing.T) {
	if err := run(io.Discard); err != nil {
		t.Fatal(err)
	}
}
