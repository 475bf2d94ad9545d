open Dd_complex

type vnode = {
  vid : int;
  level : int;
  lw : int;
  lt : vnode;
  hw : int;
  ht : vnode;
}

and vedge = { vw : int; vt : vnode }

type mnode = {
  mid : int;
  level : int;
  w00 : int;
  t00 : mnode;
  w01 : int;
  t01 : mnode;
  w10 : int;
  t10 : mnode;
  w11 : int;
  t11 : mnode;
}

and medge = { mw : int; mt : mnode }

let zero = Ctable.zero_tag

let rec v_terminal =
  {
    vid = 0;
    level = -1;
    lw = zero;
    lt = v_terminal;
    hw = zero;
    ht = v_terminal;
  }

let rec m_terminal =
  {
    mid = 0;
    level = -1;
    w00 = zero;
    t00 = m_terminal;
    w01 = zero;
    t01 = m_terminal;
    w10 = zero;
    t10 = m_terminal;
    w11 = zero;
    t11 = m_terminal;
  }

let v_zero = { vw = zero; vt = v_terminal }
let m_zero = { mw = zero; mt = m_terminal }
let v_low n = { vw = n.lw; vt = n.lt }
let v_high n = { vw = n.hw; vt = n.ht }

let m_child n i =
  match i with
  | 0 -> { mw = n.w00; mt = n.t00 }
  | 1 -> { mw = n.w01; mt = n.t01 }
  | 2 -> { mw = n.w10; mt = n.t10 }
  | _ -> { mw = n.w11; mt = n.t11 }

let v_is_terminal (node : vnode) = node.level < 0
let m_is_terminal (node : mnode) = node.level < 0
let v_is_zero edge = edge.vw = zero
let m_is_zero edge = edge.mw = zero
let v_edge_equal a b = a.vt.vid = b.vt.vid && a.vw = b.vw
let m_edge_equal a b = a.mt.mid = b.mt.mid && a.mw = b.mw

let v_height edge = edge.vt.level + 1
