package gelee

import (
	"path/filepath"

	"github.com/liquidpub/gelee/internal/access"
	"github.com/liquidpub/gelee/internal/actionlib"
	"github.com/liquidpub/gelee/internal/runtime"
	"github.com/liquidpub/gelee/internal/store"
)

// FsckReport is the check of a data directory: the reports on its
// definitions journal and its instances journal, and the failure, if
// any, to rebuild the action library and accounts from the replayed
// definitions.
type FsckReport struct {
	Journals []store.FsckReport `json:"journals"`
	Rebuild  string             `json:"rebuild,omitempty"`
	// Clean reports that New opens the directory.
	Clean bool `json:"clean"`
}

// Fsck checks the data directory at dataDir the way New opens it: each
// journal's files by the store's checks (Store.Fsck), the definitions
// journal's records into the parts New registers, then New's rebuild
// of the action library and accounts, and the instance journal's
// records into a throwaway runtime's ApplyJournal. So a record New
// would fail on is reported corrupt, by file, line and offset. It
// publishes nothing and starts no background work. Read-only unless
// repair, which truncates torn active tails and quarantines every file
// that fails a check or holds a record its consumer cannot apply.
// Returns an error only for IO failures; corruption is reported.
func Fsck(dataDir string, repair bool) (FsckReport, error) {
	var rep FsckReport
	st := store.Open(dataDir, store.Options{})
	defs := registerDefinitions(st)
	drep, err := st.Fsck(repair)
	if err != nil {
		return rep, err
	}
	reg, acl := actionlib.NewRegistry(), access.NewControl()
	if drep.Clean {
		if err := defs.rebuild(reg, acl); err != nil {
			rep.Rebuild = err.Error()
		}
	}
	rt, err := runtime.New(runtime.Config{Registry: reg})
	if err != nil {
		return rep, err
	}
	irep, err := store.FsckInstances(filepath.Join(dataDir, "instances"), repair, rt.ApplyJournal)
	if err != nil {
		return rep, err
	}
	rt.FinishRecovery()
	rep.Journals = []store.FsckReport{drep, irep}
	rep.Clean = drep.Clean && irep.Clean && rep.Rebuild == ""
	return rep, nil
}
