package shard

import (
	"slices"
	"sort"

	"penguin/internal/par"
	"penguin/internal/reldb"
	"penguin/internal/viewobject"
)

// InstantiateByKey assembles the instance with the given object key by
// reading only its home shard (island rows live there; replicated rows
// are everywhere, so the home snapshot has the whole instance).
func (c *Cluster) InstantiateByKey(objName string, key reldb.Tuple) (*viewobject.Instance, bool, error) {
	o, err := c.object(objName)
	if err != nil {
		return nil, false, err
	}
	home, err := o.home(key, len(c.dbs))
	if err != nil {
		return nil, false, err
	}
	rtx := c.dbs[home].BeginRead()
	defer rtx.Close()
	return viewobject.InstantiateByKey(rtx, o.trs[home].Definition(), key)
}

// Instantiate runs the query on every shard — each against its own
// consistent snapshot — and merges the per-shard results into a single
// pivot-key-ordered list. Island partitioning makes the shard result
// sets disjoint: every instance appears exactly once, on its pivot's
// home shard.
func (c *Cluster) Instantiate(objName string, q viewobject.Query) ([]*viewobject.Instance, error) {
	o, err := c.object(objName)
	if err != nil {
		return nil, err
	}
	n := len(c.dbs)
	parts, err := par.Map(n, n, n, func(i, _, _ int) ([]*viewobject.Instance, error) {
		rtx := c.dbs[i].BeginRead()
		defer rtx.Close()
		return viewobject.Instantiate(rtx, o.trs[i].Definition(), q)
	})
	if err != nil {
		return nil, err
	}
	out := slices.Concat(parts...)
	// Per-shard results are already pivot-key ordered; a stable sort on
	// the encoded key merges them deterministically.
	sort.SliceStable(out, func(a, b int) bool {
		return o.pivotSchema.EncodeKeyOf(out[a].Root().Tuple()) <
			o.pivotSchema.EncodeKeyOf(out[b].Root().Tuple())
	})
	return out, nil
}

// rehome rebuilds an instance against another shard's copy of the
// definition (identical shape, distinct pointers — vupdate's instance
// check compares definitions by identity).
func rehome(def *viewobject.Definition, inst *viewobject.Instance) (*viewobject.Instance, error) {
	if inst.Definition() == def {
		return inst, nil
	}
	out, err := viewobject.NewInstance(def, inst.Root().Tuple())
	if err != nil {
		return nil, err
	}
	var walk func(node *viewobject.Node, src, dst *viewobject.InstNode) error
	walk = func(node *viewobject.Node, src, dst *viewobject.InstNode) error {
		for _, child := range node.Children {
			for _, sc := range src.Children(child.ID) {
				dc, err := dst.AddChild(def, child.ID, sc.Tuple())
				if err != nil {
					return err
				}
				if err := walk(child, sc, dc); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(def.Root(), inst.Root(), out.Root()); err != nil {
		return nil, err
	}
	return out, nil
}
