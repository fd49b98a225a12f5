package bench

import (
	"fmt"

	"repro/internal/core"
)

func init() {
	registerUngated("table1", "Comparison against conventional approaches", func(o Options) error {
		fmt.Fprint(o.W, core.TableI())
		return nil
	})
	registerUngated("table2", "Applicability of the proposed techniques", func(o Options) error {
		fmt.Fprint(o.W, core.TableII())
		return nil
	})
	registerUngated("table3", "Benchmark applications", func(o Options) error {
		t := newTable("App", "Hyper.Dim", "Primitives", "Datasets", "Environment")
		t.add("DLRM", "3", "Sc Ga Br AA RS", "Criteo-like clicks", "Emb dim = 16, 32")
		t.add("GNN RS&AR", "2", "Sc Ga Br RS AR", "PM-like, RD-like", "Layers = 3")
		t.add("GNN AR&AG", "2", "Sc Ga Br AG AR", "PM-like, RD-like", "Layers = 3")
		t.add("BFS", "1", "Sc Ga Br AR", "LJ-like, LG-like", "OR reduction")
		t.add("CC", "1", "Sc Ga Br AR", "LJ-like, LG-like", "MIN reduction, undirected")
		t.add("MLP", "1", "Sc Ga RS", "dense weights", "Features = 16k/4, 32k/4; Layers = 5")
		t.write(o.W)
		return nil
	})
}
