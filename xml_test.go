package gelee

import (
	"strings"
	"testing"

	"github.com/liquidpub/gelee/internal/core"
	"github.com/liquidpub/gelee/internal/scenario"
	"github.com/liquidpub/gelee/internal/xmlcodec"
)

// TestImportExportModelXML is Table I: a lifecycle model travels as a
// self-contained <process> document and round-trips unchanged.
func TestImportExportModelXML(t *testing.T) {
	sys := newSystem(t, Options{})
	doc, err := xmlcodec.MarshalModel(scenario.QualityPlan())
	if err != nil {
		t.Fatal(err)
	}
	uri, err := sys.ImportModelXML("", doc)
	if err != nil {
		t.Fatal(err)
	}
	if uri != scenario.QualityPlanURI {
		t.Fatalf("imported uri = %q", uri)
	}
	out, err := sys.ExportModelXML(uri)
	if err != nil {
		t.Fatal(err)
	}
	m1, _ := xmlcodec.UnmarshalModel(doc)
	m2, err := xmlcodec.UnmarshalModel(out)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Fingerprint() != m2.Fingerprint() {
		t.Fatal("import/export round trip drifted")
	}
	for _, tag := range []string{"<process", "<version_info>", "<phases_list>", "<action_call>", "<transition_list>"} {
		if !strings.Contains(string(out), tag) {
			t.Errorf("export lacks Table I element %s", tag)
		}
	}
	if _, err := sys.ExportModelXML("urn:ghost"); err == nil {
		t.Fatal("export of missing model accepted")
	}
	if _, err := sys.ImportModelXML("", []byte("<process>")); err == nil {
		t.Fatal("malformed XML imported")
	}
}

// TestImportExportActionTypeXML is Table II: an <action_type> document
// declares each parameter's binding time and whether it is required.
func TestImportExportActionTypeXML(t *testing.T) {
	sys := newSystem(t, Options{})
	doc := `<action_type uri="urn:custom:sign"><name>Digitally Sign</name>
	  <parameters><param bindingTime="call" required="yes"><name>certificate</name><value></value></param></parameters>
	</action_type>`
	uri, err := sys.ImportActionTypeXML("", []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if uri != "urn:custom:sign" {
		t.Fatalf("uri = %q", uri)
	}
	// The imported type is browsable at design time (Fig. 3).
	found := false
	for _, at := range sys.ActionTypes("") {
		if at.URI == uri {
			found = true
		}
	}
	if !found {
		t.Fatal("imported type not browsable")
	}
	out, err := sys.ExportActionTypeXML(uri)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`uri="urn:custom:sign"`, "Digitally Sign", `bindingTime="call"`, `required="yes"`} {
		if !strings.Contains(string(out), want) {
			t.Errorf("export missing %q:\n%s", want, out)
		}
	}
	back, err := xmlcodec.UnmarshalActionType(out)
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := back.Param("certificate"); !ok || p.BindingTime != core.BindCall || !p.Required || back.Name != "Digitally Sign" {
		t.Fatalf("re-parsed export = %+v", back)
	}
	if _, err := sys.ExportActionTypeXML("urn:ghost"); err == nil {
		t.Fatal("export of missing type accepted")
	}
	if _, err := sys.ImportActionTypeXML("", []byte("garbage")); err == nil {
		t.Fatal("garbage imported")
	}
}
