#include "ordering/amd.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace pangulu::ordering {

namespace {

constexpr index_t kEmpty = -1;

// One array slot holds either a position or list head (>= 0), kEmpty, or a
// reference to a vertex stored as flip(v) <= -2; flip is its own inverse.
constexpr index_t flip(index_t v) { return -v - 2; }
constexpr nnz_t flip(nnz_t v) { return -v - 2; }

// Postorders the assembly tree (children before parents, each node's largest
// front last among its siblings) and returns order[e] for every element e
// (nv[e] > 0), kEmpty elsewhere.
std::vector<index_t> postorder_tree(index_t n, const index_t* parent,
                                    const index_t* nv, const index_t* fsize) {
  std::vector<index_t> child(static_cast<std::size_t>(n), kEmpty);
  std::vector<index_t> sibling(static_cast<std::size_t>(n), kEmpty);
  for (index_t j = n - 1; j >= 0; --j) {
    if (nv[j] > 0 && parent[j] != kEmpty) {
      sibling[static_cast<std::size_t>(j)] = child[static_cast<std::size_t>(parent[j])];
      child[static_cast<std::size_t>(parent[j])] = j;
    }
  }
  // Move each node's largest child to the end of its child list, so the
  // biggest front is assembled last (smaller stack of pending fronts).
  for (index_t i = 0; i < n; ++i) {
    if (nv[i] <= 0 || child[static_cast<std::size_t>(i)] == kEmpty) continue;
    index_t fprev = kEmpty, bigfprev = kEmpty, bigf = kEmpty, maxfrsize = kEmpty;
    for (index_t f = child[static_cast<std::size_t>(i)]; f != kEmpty;
         f = sibling[static_cast<std::size_t>(f)]) {
      if (fsize[f] >= maxfrsize) {
        maxfrsize = fsize[f];
        bigfprev = fprev;
        bigf = f;
      }
      fprev = f;
    }
    const index_t fnext = sibling[static_cast<std::size_t>(bigf)];
    if (fnext != kEmpty) {
      if (bigfprev == kEmpty)
        child[static_cast<std::size_t>(i)] = fnext;
      else
        sibling[static_cast<std::size_t>(bigfprev)] = fnext;
      sibling[static_cast<std::size_t>(bigf)] = kEmpty;
      sibling[static_cast<std::size_t>(fprev)] = bigf;
    }
  }
  std::vector<index_t> order(static_cast<std::size_t>(n), kEmpty);
  std::vector<index_t> stack;
  index_t k = 0;
  for (index_t root = 0; root < n; ++root) {
    if (parent[root] != kEmpty || nv[root] <= 0) continue;
    stack.push_back(root);
    while (!stack.empty()) {
      const index_t i = stack.back();
      if (child[static_cast<std::size_t>(i)] != kEmpty) {
        // Push the children in reverse so the list head pops first; clearing
        // the list orders i when it is seen again.
        const std::size_t base = stack.size();
        for (index_t f = child[static_cast<std::size_t>(i)]; f != kEmpty;
             f = sibling[static_cast<std::size_t>(f)])
          stack.push_back(f);
        std::reverse(stack.begin() + static_cast<std::ptrdiff_t>(base), stack.end());
        child[static_cast<std::size_t>(i)] = kEmpty;
      } else {
        stack.pop_back();
        order[static_cast<std::size_t>(i)] = k++;
      }
    }
  }
  return order;
}

}  // namespace

// Quotient-graph AMD after Amestoy, Davis & Duff (1996), in the array layout
// of their reference code. All adjacency lives in one workspace `iw`; object
// i (a variable or an element) owns iw[pe[i] .. pe[i] + len[i]), a variable's
// list holding its elen[i] adjacent elements first, then its variables.
// Per object:
//   nv[i]     supervariable size (0: absorbed or dense; negated while i is
//             in the pivot element being built), pivot count once eliminated
//   elen[i]   element count of a variable; flip(front size) for an element
//   degree[i] approximate external degree (a variable) / |Le| (an element)
//   next, last, head  doubly linked degree lists, reused as hash buckets
//   w[e]      |Le \ Lme| scratch relative to the flag wflg; 0 = dead element
// Eliminating the minimum-degree supervariable me builds Lme from its
// elements and variables (absorbing the elements), updates every member's
// approximate degree from |Le \ Lme|, absorbs elements whose rest is empty
// (aggressive absorption), eliminates members adjacent to me alone (mass
// elimination), and merges members with equal adjacency, found by hash and
// confirmed exactly (supervariables). Rows denser than 10 sqrt(n) (at least
// 16) are set aside and ordered last. The result is the postorder of the
// assembly tree.
std::vector<index_t> amd(const Graph& g) {
  const index_t n = g.n;
  if (n == 0) return {};
  const auto nz = static_cast<nnz_t>(g.adj.size());
  const nnz_t iwlen = nz + nz / 5 + 2 * static_cast<nnz_t>(n);
  const auto un = static_cast<std::size_t>(n);

  std::vector<nnz_t> pe_v(un), w_v(un, 1);
  std::vector<index_t> iw_v(static_cast<std::size_t>(iwlen));
  std::vector<index_t> len_v(un), elen_v(un, 0), nv_v(un, 1), degree_v(un);
  std::vector<index_t> next_v(un, kEmpty), last_v(un, kEmpty), head_v(un, kEmpty);
  nnz_t* const pe = pe_v.data();
  nnz_t* const w = w_v.data();
  index_t* const iw = iw_v.data();
  index_t* const len = len_v.data();
  index_t* const elen = elen_v.data();
  index_t* const nv = nv_v.data();
  index_t* const degree = degree_v.data();
  index_t* const next = next_v.data();
  index_t* const last = last_v.data();
  index_t* const head = head_v.data();

  std::copy(g.adj.begin(), g.adj.end(), iw);
  for (index_t i = 0; i < n; ++i) {
    pe[i] = g.ptr[static_cast<std::size_t>(i)];
    len[i] = g.degree(i);
    degree[i] = len[i];
  }
  nnz_t pfree = nz;

  // wflg grows by at most 2n per pivot (lemax, plus one per hash bucket),
  // under 2n^2 + n in all, which a 64-bit w holds for every index_t n: the
  // marks never need the periodic reset of 32-bit implementations.
  nnz_t wflg = 2;
  const index_t dense = std::min<index_t>(
      n, std::max<index_t>(16, static_cast<index_t>(10.0 * std::sqrt(static_cast<double>(n)))));

  auto remove_from_degree_list = [&](index_t i) {
    const index_t ilast = last[i], inext = next[i];
    if (inext != kEmpty) last[inext] = ilast;
    if (ilast != kEmpty)
      next[ilast] = inext;
    else
      head[degree[i]] = inext;
  };
  auto push_degree_list = [&](index_t i, index_t deg) {
    const index_t inext = head[deg];
    if (inext != kEmpty) last[inext] = i;
    next[i] = inext;
    last[i] = kEmpty;
    head[deg] = i;
  };

  // Isolated rows are eliminated at once, dense rows set aside; the rest
  // enter the degree lists.
  index_t nel = 0;
  for (index_t i = 0; i < n; ++i) {
    const index_t deg = degree[i];
    if (deg == 0) {
      elen[i] = flip(index_t{1});
      ++nel;
      pe[i] = kEmpty;
      w[i] = 0;
    } else if (deg > dense) {
      nv[i] = 0;
      elen[i] = kEmpty;
      ++nel;
      pe[i] = kEmpty;
    } else {
      push_degree_list(i, deg);
    }
  }

  index_t mindeg = 0;
  index_t lemax = 0;
  while (nel < n) {
    // Pivot: the head of the lowest non-empty degree list.
    index_t me = kEmpty;
    index_t deg = mindeg;
    for (; deg < n; ++deg) {
      me = head[deg];
      if (me != kEmpty) break;
    }
    PANGULU_CHECK(me != kEmpty, "amd: degree lists exhausted early");
    mindeg = deg;
    {
      const index_t inext = next[me];
      if (inext != kEmpty) last[inext] = kEmpty;
      head[deg] = inext;
    }
    const index_t elenme = elen[me];
    index_t nvpiv = nv[me];
    nel += nvpiv;

    // Build Lme, flagging each member by negating its nv.
    nv[me] = -nvpiv;
    index_t degme = 0;
    nnz_t pme1, pme2;
    if (elenme == 0) {
      // No adjacent elements: Lme overwrites me's own variable list.
      pme1 = pe[me];
      pme2 = pme1 - 1;
      for (nnz_t p = pme1; p < pme1 + len[me]; ++p) {
        const index_t i = iw[p];
        const index_t nvi = nv[i];
        if (nvi > 0) {
          degme += nvi;
          nv[i] = -nvi;
          iw[++pme2] = i;
          remove_from_degree_list(i);
        }
      }
    } else {
      // Union of me's elements and variables, appended at pfree; each
      // element of me is absorbed into me.
      nnz_t p = pe[me];
      pme1 = pfree;
      const index_t slenme = len[me] - elenme;
      for (index_t knt1 = 1; knt1 <= elenme + 1; ++knt1) {
        index_t e;
        nnz_t pj;
        index_t ln;
        if (knt1 > elenme) {
          e = me;
          pj = p;
          ln = slenme;
        } else {
          e = iw[p++];
          pj = pe[e];
          ln = len[e];
        }
        for (index_t knt2 = 1; knt2 <= ln; ++knt2) {
          const index_t i = iw[pj++];
          const index_t nvi = nv[i];
          if (nvi <= 0) continue;
          if (pfree >= iwlen) {
            // Workspace full: compact every live list to the front. The
            // lists being scanned keep only their unread tails.
            pe[me] = p;
            len[me] -= knt1;
            if (len[me] == 0) pe[me] = kEmpty;
            pe[e] = pj;
            len[e] = ln - knt2;
            if (len[e] == 0) pe[e] = kEmpty;
            // Mark each list's first slot with its owner, stashing the
            // displaced entry in pe.
            for (index_t j = 0; j < n; ++j) {
              const nnz_t pn = pe[j];
              if (pn >= 0) {
                pe[j] = iw[pn];
                iw[pn] = flip(j);
              }
            }
            nnz_t psrc = 0, pdst = 0;
            while (psrc < pme1) {
              const index_t j = flip(iw[psrc++]);
              if (j >= 0) {
                iw[pdst] = static_cast<index_t>(pe[j]);
                pe[j] = pdst++;
                for (index_t knt3 = 0; knt3 + 1 < len[j]; ++knt3) iw[pdst++] = iw[psrc++];
              }
            }
            // Move the partial Lme down behind them.
            const nnz_t p1 = pdst;
            for (psrc = pme1; psrc < pfree; ++psrc) iw[pdst++] = iw[psrc];
            pme1 = p1;
            pfree = pdst;
            pj = pe[e];
            p = pe[me];
          }
          degme += nvi;
          nv[i] = -nvi;
          iw[pfree++] = i;
          remove_from_degree_list(i);
        }
        if (e != me) {
          pe[e] = flip(static_cast<nnz_t>(me));
          w[e] = 0;
        }
      }
      pme2 = pfree - 1;
    }

    degree[me] = degme;
    pe[me] = pme1;
    len[me] = static_cast<index_t>(pme2 - pme1 + 1);
    elen[me] = flip(nvpiv + degme);

    // |Le \ Lme| for every element e adjacent to a member of Lme, kept as
    // w[e] - wflg.
    for (nnz_t pme = pme1; pme <= pme2; ++pme) {
      const index_t i = iw[pme];
      const index_t eln = elen[i];
      if (eln <= 0) continue;
      const index_t nvi = -nv[i];
      const nnz_t wnvi = wflg - nvi;
      for (nnz_t p = pe[i]; p < pe[i] + eln; ++p) {
        const index_t e = iw[p];
        nnz_t we = w[e];
        if (we >= wflg)
          we -= nvi;
        else if (we != 0)
          we = degree[e] + wnvi;
        w[e] = we;
      }
    }

    // Approximate degrees, element absorption and mass elimination.
    for (nnz_t pme = pme1; pme <= pme2; ++pme) {
      const index_t i = iw[pme];
      const nnz_t p1 = pe[i];
      const nnz_t p2 = p1 + elen[i] - 1;
      nnz_t pn = p1;
      std::uint64_t hash = 0;
      nnz_t dg = 0;
      for (nnz_t p = p1; p <= p2; ++p) {
        const index_t e = iw[p];
        if (w[e] == 0) continue;  // dead element: drop the reference
        const nnz_t dext = w[e] - wflg;
        if (dext > 0) {
          dg += dext;
          iw[pn++] = e;
          hash += static_cast<std::uint64_t>(e);
        } else {
          // Le is inside Lme: aggressive absorption of e into me.
          pe[e] = flip(static_cast<nnz_t>(me));
          w[e] = 0;
        }
      }
      elen[i] = static_cast<index_t>(pn - p1 + 1);  // + me, placed below
      // Variables still adjacent to i through an original edge; members of
      // Lme (flagged) and absorbed variables drop out.
      const nnz_t p3 = pn;
      const nnz_t p4 = p1 + len[i];
      for (nnz_t p = p2 + 1; p < p4; ++p) {
        const index_t j = iw[p];
        const index_t nvj = nv[j];
        if (nvj > 0) {
          dg += nvj;
          iw[pn++] = j;
          hash += static_cast<std::uint64_t>(j);
        }
      }
      if (elen[i] == 1 && p3 == pn) {
        // i is adjacent to me alone: mass elimination with me.
        pe[i] = flip(static_cast<nnz_t>(me));
        const index_t nvi = -nv[i];
        degme -= nvi;
        nvpiv += nvi;
        nel += nvi;
        nv[i] = 0;
        elen[i] = kEmpty;
      } else {
        degree[i] = static_cast<index_t>(std::min<nnz_t>(degree[i], dg));
        // me goes first in the element list; the displaced first element
        // moves to the front of the variables, whose first moves to the end.
        iw[pn] = iw[p3];
        iw[p3] = iw[p1];
        iw[p1] = me;
        len[i] = static_cast<index_t>(pn - p1 + 1);
        // Hash bucket: head[h] when degree list h is empty (stored flipped),
        // else last[] of that list's head.
        const auto h = static_cast<index_t>(hash % static_cast<std::uint64_t>(n));
        const index_t j = head[h];
        if (j <= kEmpty) {
          next[i] = flip(j);
          head[h] = flip(i);
        } else {
          next[i] = last[j];
          last[j] = i;
        }
        last[i] = h;
      }
    }
    degree[me] = degme;
    lemax = std::max(lemax, degme);
    wflg += lemax;

    // Supervariable detection: within each hash bucket, merge variables
    // whose element and variable lists match (me, first in both, skipped).
    for (nnz_t pme = pme1; pme <= pme2; ++pme) {
      index_t i = iw[pme];
      if (nv[i] >= 0) continue;
      const index_t h = last[i];
      const index_t j0 = head[h];
      if (j0 == kEmpty) {
        i = kEmpty;
      } else if (j0 < kEmpty) {
        i = flip(j0);
        head[h] = kEmpty;
      } else {
        i = last[j0];
        last[j0] = kEmpty;
      }
      while (i != kEmpty && next[i] != kEmpty) {
        const index_t ln = len[i];
        const index_t eln = elen[i];
        for (nnz_t p = pe[i] + 1; p < pe[i] + ln; ++p) w[iw[p]] = wflg;
        index_t jlast = i;
        index_t j = next[i];
        while (j != kEmpty) {
          bool same = len[j] == ln && elen[j] == eln;
          for (nnz_t p = pe[j] + 1; same && p < pe[j] + ln; ++p)
            same = w[iw[p]] == wflg;
          if (same) {
            pe[j] = flip(static_cast<nnz_t>(i));
            nv[i] += nv[j];
            nv[j] = 0;
            elen[j] = kEmpty;
            j = next[j];
            next[jlast] = j;
          } else {
            jlast = j;
            j = next[j];
          }
        }
        ++wflg;
        i = next[i];
      }
    }

    // Finalise degrees, return the principal members to the degree lists
    // and drop absorbed ones from Lme.
    nnz_t p = pme1;
    const index_t nleft = n - nel;
    for (nnz_t pme = pme1; pme <= pme2; ++pme) {
      const index_t i = iw[pme];
      const index_t nvi = -nv[i];
      if (nvi <= 0) continue;
      nv[i] = nvi;
      const index_t d = std::min(degree[i] + degme - nvi, nleft - nvi);
      push_degree_list(i, d);
      mindeg = std::min(mindeg, d);
      degree[i] = d;
      iw[p++] = i;
    }
    nv[me] = nvpiv;
    len[me] = static_cast<index_t>(p - pme1);
    if (len[me] == 0) {
      pe[me] = kEmpty;
      w[me] = 0;
    }
    if (elenme != 0) pfree = p;  // Lme was built at pfree: reclaim its tail
  }

  // Assembly tree: parent[i] = flip(pe[i]); elements (nv > 0) form the tree,
  // every absorbed or mass-eliminated variable hangs off the element that
  // orders it. Dense rows have no parent.
  std::vector<index_t> parent(un), fsize(un);
  for (index_t i = 0; i < n; ++i) {
    PANGULU_CHECK(pe[i] < 0, "amd: element left unabsorbed");
    parent[static_cast<std::size_t>(i)] =
        pe[i] == kEmpty ? kEmpty : static_cast<index_t>(flip(pe[i]));
    fsize[static_cast<std::size_t>(i)] = flip(elen[i]);
  }
  for (index_t i = 0; i < n; ++i) {
    if (nv[i] != 0 || parent[static_cast<std::size_t>(i)] == kEmpty) continue;
    index_t e = parent[static_cast<std::size_t>(i)];
    while (nv[e] == 0) e = parent[static_cast<std::size_t>(e)];
    for (index_t j = i; nv[j] == 0;) {
      const index_t jnext = parent[static_cast<std::size_t>(j)];
      parent[static_cast<std::size_t>(j)] = e;
      j = jnext;
    }
  }
  const std::vector<index_t> order = postorder_tree(n, parent.data(), nv, fsize.data());

  // Each element's pivots take consecutive positions in postorder; the
  // variables it absorbed fill its block ahead of it, dense rows go last.
  std::vector<index_t> by_order(un, kEmpty);
  for (index_t e = 0; e < n; ++e)
    if (order[static_cast<std::size_t>(e)] != kEmpty)
      by_order[static_cast<std::size_t>(order[static_cast<std::size_t>(e)])] = e;
  std::vector<index_t> perm(un, kEmpty);
  index_t pos = 0;
  for (index_t k = 0; k < n; ++k) {
    const index_t e = by_order[static_cast<std::size_t>(k)];
    if (e == kEmpty) break;
    perm[static_cast<std::size_t>(e)] = pos;
    pos += nv[e];
  }
  for (index_t i = 0; i < n; ++i) {
    if (nv[i] != 0) continue;
    const index_t e = parent[static_cast<std::size_t>(i)];
    if (e != kEmpty)
      perm[static_cast<std::size_t>(i)] = perm[static_cast<std::size_t>(e)]++;
    else
      perm[static_cast<std::size_t>(i)] = pos++;
  }
  PANGULU_CHECK(pos == n, "amd: not all vertices ordered");
  return perm;
}

}  // namespace pangulu::ordering
