package metrics

// Source exports named events. It is satisfied structurally (no import
// of this package needed); the runtime Registry implements it, calling
// emit once per series it holds.
type Source interface {
	EmitEvents(emit func(event string, value float64))
}

// EventSet is a flat snapshot of a Source; it is itself a Source.
type EventSet map[string]float64

// EmitEvents replays the snapshot (iteration order unspecified).
func (s EventSet) EmitEvents(emit func(string, float64)) {
	for k, v := range s {
		emit(k, v)
	}
}

// Snapshot materializes a Source into an EventSet. A Source emitting
// the same event twice accumulates (the natural reading for counters
// merged from several sub-sources).
func Snapshot(src Source) EventSet {
	if es, ok := src.(EventSet); ok {
		return es
	}
	es := EventSet{}
	src.EmitEvents(func(name string, v float64) { es[name] += v })
	return es
}
