// EU project: the paper's full §II.A motivating scenario — the
// LiquidPub project with 35 deliverables following the Fig. 1 quality
// plan, including the messy reality the paper insists on supporting:
// a deadline-pressed owner skipping the internal review (deviation with
// annotation), the coordinator changing the quality plan mid-project
// (light-coupled propagation, owners accept or reject), and the
// coordinator's monitoring cockpit.
//
// Run: go run ./examples/euproject
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"github.com/liquidpub/gelee"
	"github.com/liquidpub/gelee/internal/scenario"
	"github.com/liquidpub/gelee/internal/vclock"
)

func main() {
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	sys, err := gelee.New(gelee.Options{EmbeddedPlugins: true, SyncActions: true, Clock: clock})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	model, deliverables := scenario.LiquidPub()
	if err := sys.DefineModel("lpAdmin", model); err != nil {
		log.Fatal(err)
	}

	// Create the 35 artifacts in their managing applications and
	// instantiate the quality plan on each.
	ids := make([]string, len(deliverables))
	for i, d := range deliverables {
		createResource(sys, d)
		snap, err := sys.Instantiate(model.URI, d.Ref, d.Owner, map[string]map[string]string{
			"http://www.liquidpub.org/a/notify": {"reviewers": d.Reviewers},
			"http://www.liquidpub.org/a/post":   {"site": "project.liquidpub.org"},
		})
		if err != nil {
			log.Fatalf("%s: %v", d.ID, err)
		}
		ids[i] = snap.ID
		// Spread progress: every deliverable somewhere different.
		for j := 0; j <= i%len(scenario.HappyPath); j++ {
			if _, err := sys.Advance(snap.ID, scenario.HappyPath[j], d.Owner, gelee.AdvanceOptions{}); err != nil {
				log.Fatalf("%s: %v", d.ID, err)
			}
		}
		clock.Advance(6 * time.Hour)
	}

	// --- The messy reality -------------------------------------------------

	// D1.1's owner skips the internal review: a deviation, annotated.
	d0 := deliverables[0]
	if _, err := sys.Advance(ids[0], "eureview", d0.Owner, gelee.AdvanceOptions{
		Annotation: "internal review skipped: EU deadline in 3 days",
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deviation recorded on %s (%s)\n", d0.ID, ids[0])

	// The coordinator adds an Archival phase to the quality plan and
	// propagates; each owner decides.
	v2 := model.Clone()
	v2.Version.Number = "2.0"
	v2.Phases = append(v2.Phases, &gelee.Phase{ID: "archival", Name: "Archival"})
	v2.Transitions = append(v2.Transitions, gelee.Transition{From: "accepted", To: "archival"})
	n, err := sys.Propagate("lpAdmin", v2, "quality plan v2: archival phase added")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("quality plan v2 proposed to %d running instances\n", n)

	// First ten owners accept, the eleventh rejects.
	accepted, rejected := 0, 0
	for i, id := range ids {
		snap, _ := sys.Instance(id)
		if snap.Pending == nil {
			continue
		}
		if accepted < 10 {
			if _, err := sys.AcceptChange(id, deliverables[i].Owner, ""); err != nil {
				log.Fatal(err)
			}
			accepted++
		} else if rejected == 0 {
			if err := sys.RejectChange(id, deliverables[i].Owner, "we finish under v1"); err != nil {
				log.Fatal(err)
			}
			rejected++
		}
	}
	fmt.Printf("owners accepted=%d rejected=%d (the rest are still deciding)\n\n", accepted, rejected)

	// Time passes; some deadlines slip.
	clock.Advance(45 * 24 * time.Hour)

	// --- The coordinator's cockpit (§II.B.4) --------------------------------
	sum := sys.Monitor().Summarize()
	fmt.Println("==== monitoring cockpit ====")
	fmt.Printf("deliverables: %d total, %d active, %d completed, %d not started\n",
		sum.Total, sum.Active, sum.Completed, sum.NotStarted)
	fmt.Printf("deviations: %d, failed actions: %d, pending proposals: %d\n",
		sum.Deviations, sum.Failed, sum.Proposals)

	phases := make([]string, 0, len(sum.ByPhase))
	for p := range sum.ByPhase {
		phases = append(phases, p)
	}
	sort.Strings(phases)
	fmt.Println("by phase:")
	for _, p := range phases {
		fmt.Printf("  %-16s %d\n", p, sum.ByPhase[p])
	}

	late := sys.Monitor().Late()
	fmt.Printf("late deliverables: %d\n", len(late))
	for _, row := range late[:min(5, len(late))] {
		fmt.Printf("  %-10s %-16s due %s, late by %s (owner %s)\n",
			row.InstanceID, row.PhaseName, row.Due.Format("2006-01-02"), row.LateBy, row.Owner)
	}

	// Drill into the deviating deliverable's history.
	fmt.Printf("\n==== timeline of %s (%s) ====\n", d0.ID, ids[0])
	for after := 0; ; {
		page, err := sys.Events(ids[0], after, 50)
		if err != nil {
			log.Fatal(err)
		}
		for _, e := range page.Events {
			marker := "  "
			if e.Deviation {
				marker = "⚠ "
			}
			fmt.Printf("%s%2d %-16s %-14s %s\n", marker, e.Seq, e.Kind, e.Phase, e.Detail)
		}
		if page.NextAfter == 0 {
			break
		}
		after = page.NextAfter
	}
}

func createResource(sys *gelee.System, d scenario.Deliverable) {
	id := d.ID
	switch d.Ref.Type {
	case "mediawiki":
		sys.Sims.Wiki.CreatePage(id, d.Owner, "= "+d.Title+" =")
	case "gdoc":
		sys.Sims.GDocs.Create(id, d.Title, d.Owner, "Draft of "+d.Title)
	case "svn":
		sys.Sims.SVN.CreateRepo(id)
		sys.Sims.SVN.Commit(id, d.Owner, "import "+d.Title)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
