package experiments

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// telemetryTableSmall is the digest of TelemetryReport's per-bank table at
// the small scale: every line after the "sim time" header. The simulator
// is deterministic, so moving where per-bank traffic is counted leaves it
// alone; a model change re-pins it and says why.
const telemetryTableSmall = "5e28c6cf73840ef891cc00cd314151d5526779648b8f8f0523314c1a33deeec5"

// TestTelemetryReportPinned pins the rcnvm-bench -telemetry table: reads,
// writes, write-backs, buffer hit rates, retries, queue peaks and bus
// occupancy of every bank the mixed workload touched, and their totals.
func TestTelemetryReportPinned(t *testing.T) {
	rep, err := TelemetryReport(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(rep, "\nsim time: ")
	if !ok {
		t.Fatalf("no sim time header in\n%s", rep)
	}
	_, table, _ = strings.Cut(table, "\n")
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(table))); got != telemetryTableSmall {
		t.Fatalf("telemetry table digest = %s, want %s\n%s", got, telemetryTableSmall, table)
	}
}
