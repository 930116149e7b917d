package runtime

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzApplyJournal feeds arbitrary bytes to the instance-journal record
// decoder, one record per line, into a fresh runtime — the path every
// replayed record and snapshot head takes. Each record must be applied
// or rejected with an error; none may panic.
func FuzzApplyJournal(f *testing.F) {
	model := popModel()
	body, err := json.Marshal(&JournalRecord{Op: RecModel, Instance: "d1", ModelDigest: "d1", Model: model})
	if err != nil {
		f.Fatal(err)
	}
	inst := []byte(`{"op":"instantiate","instance":"li-000001","seq":1,"resource":{"uri":"urn:r","type":"t"},"model_digest":"d1"}`)
	ref := popRef(0)
	legacy, err := json.Marshal(&JournalRecord{Op: RecInstantiate, Instance: "li-000002", Seq: 2,
		Resource: &ref, Model: model})
	if err != nil {
		f.Fatal(err)
	}
	propose := []byte(`{"op":"propose","instance":"li-000001","model_digest":"d1"}`)
	snap := []byte(`{"op":"snapshot","instance":"li-000003","seq":3,"resource":{"uri":"urn:r","type":"t"},"model_digest":"d1","pending":{"proposed_by":"x"},"pending_digest":"d1","events":[{"seq":1,"kind":"created"}],"truncated_events":4}`)
	f.Add(inst) // digest-only, body never seen
	f.Add(bytes.Join([][]byte{body, inst, propose, []byte(`{"op":"reject","instance":"li-000001"}`), snap}, []byte("\n")))
	f.Add(legacy)                                       // an inline-model record of an older data dir
	f.Add(append(body[:len(body)/2:len(body)/2], '\n')) // a truncated snapshot head
	f.Fuzz(func(t *testing.T, data []byte) {
		rt := popRuntime(t, Config{})
		for _, line := range bytes.Split(data, []byte("\n")) {
			_ = rt.ApplyJournal("li-fuzz", line)
		}
		rt.FinishRecovery()
	})
}
