package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
)

// checkResponse verifies one demand response against the demo backend's
// deterministic content for the file table: status 200, a Content-Length
// equal to the file's size, and exactly the bytes httpfront.DemoBackend
// writes. buf is scratch space for reading the body.
func checkResponse(resp *http.Response, path string, size int64, buf []byte) error {
	if resp.StatusCode != http.StatusOK {
		// Drain so the connection stays usable; the error is the status.
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	if resp.ContentLength != size {
		return fmt.Errorf("GET %s: Content-Length %d, file is %d bytes", path, resp.ContentLength, size)
	}
	if err := checkBody(resp.Body, path, size, buf); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// checkBody reads r to EOF and checks it is the demo content of path: the
// comment "<!-- path -->\n" repeated and cut at size bytes.
func checkBody(r io.Reader, path string, size int64, buf []byte) error {
	pattern := "<!-- " + path + " -->\n"
	var got int64
	pos := 0
	for {
		n, err := r.Read(buf)
		if got+int64(n) > size {
			return fmt.Errorf("body longer than %d bytes", size)
		}
		var ok bool
		if pos, ok = matchPattern(buf[:n], pattern, pos); !ok {
			return fmt.Errorf("body differs from the demo content within bytes %d-%d", got, got+int64(n))
		}
		got += int64(n)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return fmt.Errorf("body cut at byte %d of %d: %w", got, size, err)
		}
	}
	if got != size {
		return fmt.Errorf("body cut at byte %d of %d", got, size)
	}
	return nil
}

// matchPattern checks b against pattern repeated, starting pos bytes into
// it, and returns the position after b.
func matchPattern(b []byte, pattern string, pos int) (int, bool) {
	for len(b) > 0 {
		k := min(len(b), len(pattern)-pos)
		if string(b[:k]) != pattern[pos:pos+k] {
			return pos, false
		}
		b = b[k:]
		pos = (pos + k) % len(pattern)
	}
	return pos, true
}
