// Command geleectl is the command-line front end to a running geleed:
// the "designer", "artifact owner" and "project manager" roles of the
// paper driven from a terminal instead of the AJAX GUI.
//
// Usage:
//
//	geleectl [-server http://localhost:8085] [-user NAME] COMMAND [ARGS]
//
// Commands:
//
//	models                         list lifecycle models
//	model URI                      show one model (Table I XML)
//	define FILE.xml                define a model from Table I XML
//	actions [RESOURCE_TYPE]        browse the action library (Fig. 3)
//	instances                      list lifecycle instances (first page)
//	instance ID                    show one instance
//	instantiate MODELURI RESURI TYPE [reviewers]
//	advance ID PHASE [annotation]  move the token
//	annotate ID NOTE               attach a note
//	migrate ID accept [LANDING] | reject [NOTE]
//	summary | overview | late      monitoring cockpit
//	timeline ID                    instance history
//	widget ID                      widget HTML
//	fsck [-repair] DATADIR         offline journal integrity check
//
// fsck is the one offline command: it opens no server connection but
// walks a (stopped) geleed data directory — and its instances journal —
// verifying every record CRC, that every record's data is JSON, and
// every segment footer and archive checksum, and prints a per-file JSON
// report. With -repair it truncates torn active
// tails and moves corrupt files aside (.quarantined) so the directory
// opens again. Exits 1 when corruption was found.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"

	"github.com/liquidpub/gelee/internal/store"
)

func main() {
	server := flag.String("server", "http://localhost:8085", "geleed base URL")
	user := flag.String("user", "", "acting user (X-Gelee-User)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "geleectl: no command (try: models, instances, summary)")
		os.Exit(2)
	}
	if args[0] == "fsck" {
		if err := runFsck(args[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "geleectl: %v\n", err)
			os.Exit(1)
		}
		return
	}
	c := &client{base: *server, user: *user}
	if err := c.run(args[0], args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "geleectl: %v\n", err)
		os.Exit(1)
	}
}

// runFsck checks (and with -repair, fixes) a geleed data directory
// offline: the definitions journal at DATADIR and, when present, the
// instance journal at DATADIR/instances. Stop geleed first — fsck reads
// the same files the server appends to.
func runFsck(args []string) error {
	fs := flag.NewFlagSet("fsck", flag.ContinueOnError)
	repair := fs.Bool("repair", false, "truncate torn active tails and quarantine corrupt files")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: geleectl fsck [-repair] DATADIR")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: fsck [-repair] DATADIR")
	}
	dataDir := fs.Arg(0)
	if _, err := os.Stat(dataDir); err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	dirs := []string{dataDir}
	if info, err := os.Stat(filepath.Join(dataDir, "instances")); err == nil && info.IsDir() {
		dirs = append(dirs, filepath.Join(dataDir, "instances"))
	}
	corrupt, torn, repaired := 0, 0, 0
	reports := make([]store.FsckReport, 0, len(dirs))
	for _, d := range dirs {
		rep, err := store.Fsck(d, *repair)
		if err != nil {
			return err
		}
		corrupt += rep.Corrupt
		torn += rep.Torn
		repaired += rep.Repaired
		reports = append(reports, rep)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(reports); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fsck: %d corrupt, %d torn, %d repaired across %d dir(s)\n",
		corrupt, torn, repaired, len(dirs))
	if corrupt > 0 {
		return fmt.Errorf("fsck: corruption found in %d file(s)", corrupt)
	}
	return nil
}

type client struct {
	base string
	user string
}

func (c *client) run(cmd string, args []string) error {
	switch cmd {
	case "models":
		return c.getJSON("/api/v1/models")
	case "model":
		if len(args) != 1 {
			return fmt.Errorf("usage: model URI")
		}
		// Models are addressed by their path-escaped URI.
		return c.getRaw("/api/v1/models/" + url.PathEscape(args[0]) + "?format=xml")
	case "define":
		if len(args) != 1 {
			return fmt.Errorf("usage: define FILE.xml")
		}
		data, err := os.ReadFile(args[0])
		if err != nil {
			return err
		}
		return c.post("/api/v1/models", "application/xml", data)
	case "actions":
		path := "/api/v1/actions"
		if len(args) == 1 {
			path += "?resource_type=" + args[0]
		}
		return c.getJSON(path)
	case "instances":
		return c.getJSON("/api/v1/instances")
	case "instance":
		if len(args) != 1 {
			return fmt.Errorf("usage: instance ID")
		}
		return c.getJSON("/api/v1/instances/" + args[0])
	case "instantiate":
		if len(args) < 3 {
			return fmt.Errorf("usage: instantiate MODELURI RESURI TYPE [reviewers]")
		}
		body := map[string]any{
			"model_uri": args[0],
			"resource":  map[string]string{"uri": args[1], "type": args[2]},
			"owner":     c.user,
		}
		if len(args) > 3 {
			body["bindings"] = map[string]map[string]string{
				"http://www.liquidpub.org/a/notify": {"reviewers": args[3]},
			}
		}
		return c.postJSON("/api/v1/instances", body)
	case "advance":
		if len(args) < 2 {
			return fmt.Errorf("usage: advance ID PHASE [annotation]")
		}
		body := map[string]any{"to": args[1]}
		if len(args) > 2 {
			body["annotation"] = strings.Join(args[2:], " ")
		}
		return c.postJSON("/api/v1/instances/"+args[0]+"/advance", body)
	case "annotate":
		if len(args) < 2 {
			return fmt.Errorf("usage: annotate ID NOTE")
		}
		return c.postJSON("/api/v1/instances/"+args[0]+"/annotations",
			map[string]any{"note": strings.Join(args[1:], " ")})
	case "migrate":
		if len(args) < 2 {
			return fmt.Errorf("usage: migrate ID accept [LANDING] | reject [NOTE]")
		}
		body := map[string]any{"decision": args[1]}
		if len(args) > 2 {
			if args[1] == "accept" {
				body["landing"] = args[2]
			} else {
				body["note"] = strings.Join(args[2:], " ")
			}
		}
		return c.postJSON("/api/v1/instances/"+args[0]+"/migrate", body)
	case "summary":
		return c.getJSON("/api/v1/monitor/summary")
	case "overview":
		return c.getJSON("/api/v1/monitor/overview")
	case "late":
		return c.getJSON("/api/v1/monitor/late")
	case "timeline":
		if len(args) != 1 {
			return fmt.Errorf("usage: timeline ID")
		}
		return c.getJSON("/api/v1/monitor/instances/" + args[0] + "/timeline")
	case "widget":
		if len(args) != 1 {
			return fmt.Errorf("usage: widget ID")
		}
		return c.getRaw("/widgets/" + args[0])
	}
	return fmt.Errorf("unknown command %q", cmd)
}

func (c *client) do(method, path, contentType string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if c.user != "" {
		req.Header.Set("X-Gelee-User", c.user)
	}
	return http.DefaultClient.Do(req)
}

func (c *client) render(resp *http.Response) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	// Pretty-print JSON; pass anything else through.
	var pretty bytes.Buffer
	if json.Indent(&pretty, data, "", "  ") == nil {
		pretty.WriteByte('\n')
		_, err = pretty.WriteTo(os.Stdout)
		return err
	}
	_, err = os.Stdout.Write(data)
	return err
}

func (c *client) getJSON(path string) error {
	resp, err := c.do(http.MethodGet, path, "", nil)
	if err != nil {
		return err
	}
	return c.render(resp)
}

func (c *client) getRaw(path string) error {
	resp, err := c.do(http.MethodGet, path, "", nil)
	if err != nil {
		return err
	}
	return c.render(resp)
}

func (c *client) post(path, contentType string, body []byte) error {
	resp, err := c.do(http.MethodPost, path, contentType, body)
	if err != nil {
		return err
	}
	return c.render(resp)
}

func (c *client) postJSON(path string, body any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return c.post(path, "application/json", data)
}
