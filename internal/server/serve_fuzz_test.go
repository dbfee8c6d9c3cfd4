package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"
)

// serverCodes are the wire codes a server's own session may answer with.
// internal_error is not one of them: it is a panic, recovered.
var serverCodes = map[string]bool{
	CodeOverloaded:  true,
	CodeShutdown:    true,
	CodeBadRequest:  true,
	CodeSQL:         true,
	CodeMemory:      true,
	CodeTimeout:     true,
	CodeUnavailable: true,
	CodeReadOnly:    true,
}

// sessionReplies is how many replies a session owes for input, sent as
// lines: one per non-empty line (a line's trailing "\r" is not part of
// it), up to and including the first line too long to scan, which is
// refused and ends the session (overCap).
func sessionReplies(input []byte) (n int, overCap bool) {
	for _, line := range bytes.Split(input, []byte("\n")) {
		if len(line) >= maxLineBytes {
			return n + 1, true
		}
		if len(bytes.TrimSuffix(line, []byte("\r"))) > 0 {
			n++
		}
	}
	return n, false
}

// FuzzServeLine feeds arbitrary NDJSON lines through one FrontEnd session
// of a server: every non-empty line gets exactly one reply, in order,
// which is a result or one of the server's documented codes — no panic
// (recovered or not), no hang, no extra or missing reply.
func FuzzServeLine(f *testing.F) {
	s, _ := newTestServer(f, Options{})
	mustDo(f, s, "CREATE TABLE t (a) CAPACITY 8")
	// The same request lines as TestOverCapTCPLine's: one byte inside the
	// cap, and exactly at it.
	request := func(n int) []byte {
		const head, tail = `{"id":3,"query":"SELECT COUNT(*) FROM t"`, "}"
		return []byte(head + strings.Repeat(" ", n-len(head)-1) + tail)
	}
	f.Add(request(maxLineBytes - 1))
	f.Add(request(maxLineBytes))
	f.Add([]byte(`{"id":1,"query":"INSERT INTO t VALUES (4)"}` + "\n\r\n" + `{"query":"SELECT SUM(a) FROM t","timing":true}`))
	f.Add([]byte(`{"batch":["SELECT a FROM t","DELETE FROM t"]}` + "\nnot json\n" + `{"query":"SELECT COUNT(*) FROM t","timeout_ms":1}`))
	f.Add([]byte(`{"query":""}` + "\n" + `{"batch":[],"query":"x"}` + "\nnull"))
	// Every request line of the reply golden that fits a session's line.
	for _, rig := range goldenRigs() {
		for _, c := range rig.cases {
			if len(c.line) < maxLineBytes {
				f.Add([]byte(c.line))
			}
		}
	}

	// The sentinel follows the fuzzed lines; its reply must come right
	// after theirs, so an extra reply shows as a wrong id.
	const sentinelID = 1<<63 + 7
	sentinel := []byte(`{"id":9223372036854775815,"query":"SELECT COUNT(*) FROM t"}` + "\n")

	f.Fuzz(func(t *testing.T, input []byte) {
		want, overCap := sessionReplies(input)
		client, conn := net.Pipe()
		served := make(chan struct{})
		go func() {
			s.front.serveConn(conn)
			close(served)
		}()
		defer func() {
			client.Close()
			<-served
		}()
		client.SetDeadline(time.Now().Add(10 * time.Second))
		go func() {
			// Writes fail once the session has ended; the reads report it.
			client.Write(append(append([]byte{}, input...), '\n'))
			if !overCap {
				client.Write(sentinel)
			}
		}()

		r := bufio.NewReader(client)
		total := want
		if !overCap {
			total++
		}
		for i := 0; i < total; i++ {
			line, err := r.ReadBytes('\n')
			if err != nil {
				t.Fatalf("reply %d of %d: %v", i+1, total, err)
			}
			var resp Response
			if err := json.Unmarshal(line, &resp); err != nil {
				t.Fatalf("reply %d is not a Response: %v: %q", i+1, err, line)
			}
			if resp.Error != nil && !serverCodes[resp.Error.Code] {
				t.Fatalf("reply %d: undocumented code %+v", i+1, resp.Error)
			}
			if i == want && resp.ID != sentinelID {
				t.Fatalf("reply %d is not the sentinel's: %q", i+1, line)
			}
		}
		if overCap {
			if extra, err := r.ReadBytes('\n'); err == nil {
				t.Fatalf("session stayed open after the over-cap refusal and sent %q", extra)
			}
		}
		if got := s.Metrics().Counters.Snapshot()[Panics]; got != 0 {
			t.Fatalf("%s = %d", Panics, got)
		}
	})
}
