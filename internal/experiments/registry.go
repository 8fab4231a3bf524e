package experiments

// Entry is one runnable experiment.
type Entry struct {
	// ID names the paper's table or figure numbering.
	ID string
	// Run regenerates the entry's results: one table or figure, or several
	// rendered from one set of runs.
	Run func(Params) []Result
}

// one wraps a single-result runner as an Entry.Run.
func one(run func(Params) Result) func(Params) []Result {
	return func(p Params) []Result { return []Result{run(p)} }
}

// All lists every experiment in paper order.
func All() []Entry {
	return []Entry{
		{"fig8a", one(Fig8a)},
		{"fig8bcd", Fig8bcd},
		{"fig9", one(Fig9)},
		{"fig10", one(Fig10)},
		{"fig11", one(Fig11)},
		{"fig12", Fig12},
		{"ablation-scheduler", one(AblationScheduler)},
	}
}

// ByID finds one experiment, or nil.
func ByID(id string) *Entry {
	for _, e := range All() {
		if e.ID == id {
			out := e
			return &out
		}
	}
	return nil
}
