package harness

import (
	"testing"

	"firm/internal/core"
	"firm/internal/injector"
	"firm/internal/sim"
	"firm/internal/topology"
	"firm/internal/workload"
)

// TestPaperTestbedConservesRequests runs the paper testbed — Social Network
// on the 15-node cluster with SLO calibration, FIRM and the default anomaly
// campaign — and checks request conservation at several horizons: every
// generated request is completed, dropped, or still in flight, and every
// in-flight request holds exactly one trace open in the coordinator.
func TestPaperTestbedConservesRequests(t *testing.T) {
	b, err := New(Options{Seed: 3, Spec: topology.SocialNetwork(), SLOMargin: 1.6, CalibrationN: 5})
	if err != nil {
		t.Fatal(err)
	}
	if n := b.App.InFlight(); n != 0 {
		t.Fatalf("%d calibration requests still in flight", n)
	}
	// Calibration requests are counted by the app but not the generator.
	completed0, dropped0 := b.App.Completed, b.App.Dropped
	gen := b.AttachWorkload(workload.Constant{RPS: 250})
	b.AttachFIRM(core.DefaultConfig(), SharedAgent(3), nil)
	camp := injector.DefaultCampaign(b.Injector, b.Containers())
	camp.Start()
	inFlightSeen := false
	for i := 0; i < 4; i++ {
		b.Eng.RunFor(5 * sim.Second)
		completed, dropped := b.App.Completed-completed0, b.App.Dropped-dropped0
		inFlight := b.App.InFlight()
		if gen.Submitted != completed+dropped+uint64(inFlight) {
			t.Fatalf("t=%v: submitted %d != completed %d + dropped %d + in flight %d",
				b.Eng.Now(), gen.Submitted, completed, dropped, inFlight)
		}
		if pending := b.Coord.PendingCount(); pending != inFlight {
			t.Fatalf("t=%v: %d traces pending for %d requests in flight", b.Eng.Now(), pending, inFlight)
		}
		inFlightSeen = inFlightSeen || inFlight > 0
	}
	if !inFlightSeen {
		t.Fatal("no request was in flight at any horizon; the check is vacuous")
	}
	if len(b.Injector.History()) == 0 {
		t.Fatal("the anomaly campaign injected nothing")
	}
}
