// Package widget implements the lifecycle execution widgets of §V.C and
// Fig. 4: UI components that show the lifecycle and the resource it
// manages side by side, honor visibility attributes (different users
// get different views, anonymous users may be refused), and can be fed
// into pipes as machine-readable feeds.
package widget

import (
	"encoding/xml"
	"errors"
	"fmt"
	"html/template"
	"strings"
	"sync"
	"time"

	"github.com/liquidpub/gelee/internal/access"
	"github.com/liquidpub/gelee/internal/resource"
	"github.com/liquidpub/gelee/internal/runtime"
	"github.com/liquidpub/gelee/internal/vclock"
)

// Source supplies instance snapshots, summaries, event-history pages
// and the per-phase counters — satisfied by *runtime.Runtime.
type Source interface {
	Instance(id string) (runtime.Snapshot, bool)
	Summary(id string) (runtime.Summary, bool)
	Events(id string, after, limit int) (runtime.EventPage, error)
	PhaseStats(id string, now time.Time) (map[string]runtime.PhaseStat, bool)
}

// ErrDenied is returned when the viewer may not see the widget.
var ErrDenied = fmt.Errorf("widget: viewer not allowed")

// ErrNotFound is returned for unknown instances.
var ErrNotFound = fmt.Errorf("widget: no such instance")

// Renderer builds widget views. Visibility defaults to restricted
// ("auto-discovered from the lifecycle definition": only people with a
// role on the instance see it) and can be relaxed per instance.
type Renderer struct {
	src       Source
	resources *resource.Manager
	acl       *access.Control
	clock     vclock.Clock

	mu         sync.RWMutex
	visibility map[string]access.Visibility
}

// New builds a Renderer. acl may be nil, which makes every widget
// public (embedded library use without user management).
func New(src Source, resources *resource.Manager, acl *access.Control, clock vclock.Clock) *Renderer {
	if clock == nil {
		clock = vclock.System
	}
	return &Renderer{
		src:        src,
		resources:  resources,
		acl:        acl,
		clock:      clock,
		visibility: make(map[string]access.Visibility),
	}
}

// SetVisibility overrides the widget visibility for an instance.
func (r *Renderer) SetVisibility(instanceID string, v access.Visibility) error {
	if !v.Valid() {
		return fmt.Errorf("widget: unknown visibility %q", v)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.visibility[instanceID] = v
	return nil
}

// Visibility returns the effective visibility for an instance.
func (r *Renderer) Visibility(instanceID string) access.Visibility {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if v, ok := r.visibility[instanceID]; ok {
		return v
	}
	return access.VisibilityRestricted
}

// PhaseView is one node of the widget's lifecycle strip.
type PhaseView struct {
	ID        string `json:"id"`
	Name      string `json:"name"`
	Final     bool   `json:"final,omitempty"`
	Current   bool   `json:"current,omitempty"`
	Visited   bool   `json:"visited,omitempty"`
	Suggested bool   `json:"suggested,omitempty"` // reachable next by suggestion
	Due       string `json:"due,omitempty"`
}

// View is the JSON widget payload of Fig. 4: lifecycle strip + resource
// rendering + the controls the viewing user may use.
type View struct {
	InstanceID    string             `json:"instance_id"`
	ModelName     string             `json:"model_name"`
	State         string             `json:"state"`
	Current       string             `json:"current"`
	Phases        []PhaseView        `json:"phases"`
	NextSuggested []string           `json:"next_suggested"`
	Resource      resource.Rendering `json:"resource"`
	ResourceURI   string             `json:"resource_uri"`
	Late          bool               `json:"late,omitempty"`
	Pending       string             `json:"pending_change,omitempty"`
	CanAdvance    bool               `json:"can_advance"`
	CanDeviate    bool               `json:"can_deviate"`
	Viewer        string             `json:"viewer,omitempty"`
	RenderedAt    time.Time          `json:"rendered_at"`
}

func (r *Renderer) allowed(viewer, instanceID string) bool {
	if r.acl == nil {
		return true
	}
	return r.acl.CanSee(viewer, r.Visibility(instanceID), instanceID)
}

// View builds the widget payload for viewer ("" = anonymous). The
// viewer's rights shape the view — "different users could have
// different views of the same lifecycle" (§V.C).
func (r *Renderer) View(instanceID, viewer string) (View, error) {
	snap, ok := r.src.Instance(instanceID)
	if !ok {
		return View{}, ErrNotFound
	}
	if !r.allowed(viewer, instanceID) {
		return View{}, fmt.Errorf("%w: %q on %s", ErrDenied, viewer, instanceID)
	}

	// Visited comes from the per-phase counters, not from snap.Events:
	// those are only the in-memory ring, which truncation may have
	// emptied of a phase's entries.
	now := r.clock.Now()
	stats, _ := r.src.PhaseStats(instanceID, now)
	next := snap.NextSuggested()
	nextSet := make(map[string]bool, len(next))
	for _, n := range next {
		nextSet[n] = true
	}

	v := View{
		InstanceID:    snap.ID,
		ModelName:     snap.Model.Name,
		State:         string(snap.State),
		Current:       snap.Current,
		NextSuggested: next,
		ResourceURI:   snap.Resource.URI,
		Late:          snap.Late(now),
		Viewer:        viewer,
		RenderedAt:    now,
	}
	if snap.Pending != nil {
		v.Pending = snap.Pending.Summary
	}
	for _, p := range snap.Model.Phases {
		pv := PhaseView{
			ID: p.ID, Name: p.Name, Final: p.Final,
			Current:   p.ID == snap.Current,
			Visited:   stats[p.ID].Entered > 0,
			Suggested: nextSet[p.ID],
		}
		if due := snap.DueAt(p.ID); !due.IsZero() {
			pv.Due = due.Format("2006-01-02")
		}
		v.Phases = append(v.Phases, pv)
	}
	if r.resources != nil {
		rend, err := r.resources.Render(snap.Resource)
		if err != nil && rend.Title == "" {
			rend = resource.Rendering{Title: snap.Resource.URI, Link: snap.Resource.URI}
		}
		v.Resource = rend
	} else {
		v.Resource = resource.Rendering{Title: snap.Resource.URI, Link: snap.Resource.URI}
	}
	if r.acl == nil {
		v.CanAdvance, v.CanDeviate = true, true
	} else {
		v.CanDeviate = r.acl.CanDrive(viewer, instanceID)
		v.CanAdvance = v.CanDeviate
		if !v.CanAdvance {
			for _, target := range next {
				if r.acl.CanFollow(viewer, instanceID, target) {
					v.CanAdvance = true
					break
				}
			}
		}
	}
	return v, nil
}

var htmlTmpl = template.Must(template.New("widget").Parse(`<!DOCTYPE html>
<div class="gelee-widget" data-instance="{{.InstanceID}}">
  <h2>{{.ModelName}} <small>({{.State}})</small></h2>
  {{if .Late}}<p class="late">⚠ past deadline</p>{{end}}
  {{if .Pending}}<p class="pending">model change proposed: {{.Pending}}</p>{{end}}
  <ol class="phases">
  {{range .Phases}}<li class="{{if .Current}}current{{end}}{{if .Final}} final{{end}}{{if .Visited}} visited{{end}}">
    {{.Name}}{{if .Due}} <time>{{.Due}}</time>{{end}}{{if .Suggested}} →{{end}}
  </li>
  {{end}}</ol>
  <section class="resource">
    <h3><a href="{{.Resource.Link}}">{{.Resource.Title}}</a></h3>
    <p>{{.Resource.Summary}}</p>
    <p class="status">{{.Resource.Status}}</p>
  </section>
  {{if .CanAdvance}}<nav class="advance">{{range .NextSuggested}}<button data-to="{{.}}">{{.}}</button>{{end}}</nav>{{end}}
</div>
`))

// HTML renders the widget as an embeddable HTML fragment — the form a
// user pastes next to the resource it manages (Fig. 4).
func (r *Renderer) HTML(instanceID, viewer string) (string, error) {
	v, err := r.View(instanceID, viewer)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	if err := htmlTmpl.Execute(&b, v); err != nil {
		return "", fmt.Errorf("widget: render: %w", err)
	}
	return b.String(), nil
}

// rssFeed is the minimal RSS 2.0 document the feed endpoint emits for
// pipe composition (§V.C: "we prepared our widgets to put in pipes").
type rssFeed struct {
	XMLName xml.Name   `xml:"rss"`
	Version string     `xml:"version,attr"`
	Channel rssChannel `xml:"channel"`
}

type rssChannel struct {
	Title string    `xml:"title"`
	Link  string    `xml:"link"`
	Desc  string    `xml:"description"`
	Items []rssItem `xml:"item"`
}

type rssItem struct {
	Title   string `xml:"title"`
	Desc    string `xml:"description,omitempty"`
	PubDate string `xml:"pubDate"`
	GUID    string `xml:"guid"`
}

// FeedItems is the number of events a feed carries: the newest ones.
const FeedItems = 50

// Feed renders the newest FeedItems events of the instance history as
// an RSS 2.0 feed, newest first. It pages the runtime's event history,
// not the in-memory ring, so a ring-truncated instance feeds the same
// items as one that kept every event; an event recorded between the
// total and the page read waits for the next fetch.
func (r *Renderer) Feed(instanceID, viewer string) ([]byte, error) {
	sum, ok := r.src.Summary(instanceID)
	if !ok {
		return nil, ErrNotFound
	}
	if !r.allowed(viewer, instanceID) {
		return nil, fmt.Errorf("%w: %q on %s", ErrDenied, viewer, instanceID)
	}
	page, err := r.src.Events(instanceID, max(sum.Events-FeedItems, 0), FeedItems)
	if errors.Is(err, runtime.ErrNotFound) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("widget: feed: %w", err)
	}
	feed := rssFeed{
		Version: "2.0",
		Channel: rssChannel{
			Title: sum.ModelName + " — " + sum.Resource.URI,
			Link:  sum.Resource.URI,
			Desc:  "Gelee lifecycle events for " + sum.ID,
		},
	}
	for i := len(page.Events) - 1; i >= 0; i-- {
		ev := page.Events[i]
		title := string(ev.Kind)
		if ev.Phase != "" {
			title += ": " + ev.Phase
		}
		feed.Channel.Items = append(feed.Channel.Items, rssItem{
			Title:   title,
			Desc:    ev.Detail,
			PubDate: ev.Time.Format(time.RFC1123Z),
			GUID:    fmt.Sprintf("%s#%d", sum.ID, ev.Seq),
		})
	}
	out, err := xml.MarshalIndent(feed, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("widget: feed: %w", err)
	}
	return append([]byte(xml.Header), append(out, '\n')...), nil
}
