package main

import (
	"io"
	"testing"
)

func TestRunComparesBothMethods(t *testing.T) {
	if err := run(io.Discard); err != nil {
		t.Fatal(err)
	}
}
