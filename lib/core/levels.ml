module Tree = Hgp_tree.Tree
module Dsu = Hgp_util.Dsu

let components t ~kappa ~level =
  let n = Tree.n_nodes t in
  let dsu = Dsu.create n in
  for v = 0 to n - 1 do
    if v <> Tree.root t && kappa.(v) >= level then ignore (Dsu.union dsu v (Tree.parent t v))
  done;
  let comp = Array.make n (-1) in
  let next = ref 0 in
  for v = 0 to n - 1 do
    let r = Dsu.find dsu v in
    if comp.(r) = -1 then begin
      comp.(r) <- !next;
      incr next
    end;
    comp.(v) <- comp.(r)
  done;
  (comp, !next)
