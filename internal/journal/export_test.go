package journal

import "io"

// SetScanWrap installs the scan hook for tests outside the package (the
// Resume shape test drives the whole stack) and returns the call that
// removes it.
func SetScanWrap(wrap func(path string, r io.Reader) io.Reader) (restore func()) {
	scanWrap = wrap
	return func() { scanWrap = nil }
}

// SetWriteWrap installs the append hook for tests outside the package (the
// commit-cost test drives a whole durable run) and returns the call that
// removes it.
func SetWriteWrap(wrap func(path string, w io.Writer) io.Writer) (restore func()) {
	writeWrap = wrap
	return func() { writeWrap = nil }
}
