open Dd_complex

type vnode = { vid : int; level : int; v_low : vedge; v_high : vedge }
and vedge = { vw : int; vt : vnode }

type mnode = {
  mid : int;
  level : int;
  m00 : medge;
  m01 : medge;
  m10 : medge;
  m11 : medge;
}
and medge = { mw : int; mt : mnode }

let rec v_terminal =
  {
    vid = 0;
    level = -1;
    v_low = { vw = Ctable.zero_tag; vt = v_terminal };
    v_high = { vw = Ctable.zero_tag; vt = v_terminal };
  }

let rec m_terminal =
  {
    mid = 0;
    level = -1;
    m00 = { mw = Ctable.zero_tag; mt = m_terminal };
    m01 = { mw = Ctable.zero_tag; mt = m_terminal };
    m10 = { mw = Ctable.zero_tag; mt = m_terminal };
    m11 = { mw = Ctable.zero_tag; mt = m_terminal };
  }

let v_zero = { vw = Ctable.zero_tag; vt = v_terminal }
let m_zero = { mw = Ctable.zero_tag; mt = m_terminal }
let v_is_terminal (node : vnode) = node.level < 0
let m_is_terminal (node : mnode) = node.level < 0
let v_is_zero edge = edge.vw = Ctable.zero_tag
let m_is_zero edge = edge.mw = Ctable.zero_tag
let v_edge_equal a b = a.vt.vid = b.vt.vid && a.vw = b.vw
let m_edge_equal a b = a.mt.mid = b.mt.mid && a.mw = b.mw

let v_height edge = edge.vt.level + 1
let m_height edge = edge.mt.level + 1
