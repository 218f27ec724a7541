#include "io/snapshot.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>

namespace pangulu::io {

// Field registry. One marker per tagged field, in wire order; tools/lint.sh
// counts these markers against kSnapshotFieldCount and refuses format edits
// that do not bump kSnapshotFormatVersion (see tools/snapshot_format.lock).
#define SNAPSHOT_FIELD(name, tag) \
  constexpr std::uint32_t kField_##name = (tag);
SNAPSHOT_FIELD(meta, 1)
SNAPSHOT_FIELD(a_col_ptr, 2)
SNAPSHOT_FIELD(a_row_idx, 3)
SNAPSHOT_FIELD(a_values, 4)
SNAPSHOT_FIELD(counters, 5)
SNAPSHOT_FIELD(block_nnz, 6)
SNAPSHOT_FIELD(block_values, 7)
SNAPSHOT_FIELD(dirty_pos, 8)
#undef SNAPSHOT_FIELD

namespace {

/// CRC-32C lookup tables (Castagnoli polynomial 0x82F63B78, reflected) for
/// the slicing-by-8 fallback kernel: table[0] is the classic byte table,
/// table[k] folds a byte k positions deeper, so eight bytes advance with
/// eight loads and no per-byte dependency chain. The Castagnoli polynomial
/// (not IEEE) is the format's checksum because SSE4.2 hosts evaluate it in
/// hardware — snapshots checksum every block value on every checkpoint, and
/// on a busy node the checksum competes with the factorisation for cycles.
struct CrcTable {
  std::uint32_t t[8][256];
  CrcTable() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = t[0][i];
      for (int k = 1; k < 8; ++k) {
        c = t[0][c & 0xFFu] ^ (c >> 8);
        t[k][i] = c;
      }
    }
  }
};

/// The meta section travels as a fixed array of 64-bit slots (doubles are
/// bit-cast) so the encoding is independent of struct padding and field
/// widths on the writing host.
constexpr std::size_t kMetaSlots = 22;

void pack_meta(const SnapshotMeta& m, std::int64_t* s) {
  s[0] = m.n;
  s[1] = m.nnz_a;
  s[2] = m.block_size;
  s[3] = m.n_ranks;
  s[4] = m.balance;
  s[5] = m.policy;
  s[6] = m.schedule;
  s[7] = m.verify_level;
  s[8] = m.abft_level;
  s[9] = m.use_mc64;
  s[10] = m.apply_scaling;
  s[11] = m.fill_reducing;
  s[12] = m.nd_leaf_size;
  s[13] = m.preprocess_threads;
  s[14] = m.refine_iters;
  std::memcpy(&s[15], &m.pivot_tol, sizeof(double));
  s[16] = m.checkpoint_interval;
  s[17] = m.n_tasks;
  s[18] = m.tasks_done;
  s[19] = m.incremental;
  s[20] = m.precision;
  std::memcpy(&s[21], &m.perm_fingerprint, sizeof(std::uint64_t));
}

void unpack_meta(const std::int64_t* s, SnapshotMeta* m) {
  m->n = static_cast<index_t>(s[0]);
  m->nnz_a = s[1];
  m->block_size = static_cast<index_t>(s[2]);
  m->n_ranks = static_cast<rank_t>(s[3]);
  m->balance = static_cast<std::int32_t>(s[4]);
  m->policy = static_cast<std::int32_t>(s[5]);
  m->schedule = static_cast<std::int32_t>(s[6]);
  m->verify_level = static_cast<std::int32_t>(s[7]);
  m->abft_level = static_cast<std::int32_t>(s[8]);
  m->use_mc64 = static_cast<std::int32_t>(s[9]);
  m->apply_scaling = static_cast<std::int32_t>(s[10]);
  m->fill_reducing = static_cast<std::int32_t>(s[11]);
  m->nd_leaf_size = static_cast<std::int32_t>(s[12]);
  m->preprocess_threads = static_cast<std::int32_t>(s[13]);
  m->refine_iters = static_cast<std::int32_t>(s[14]);
  std::memcpy(&m->pivot_tol, &s[15], sizeof(double));
  m->checkpoint_interval = s[16];
  m->n_tasks = s[17];
  m->tasks_done = s[18];
  m->incremental = s[19];
  m->precision = static_cast<std::int32_t>(s[20]);
  std::memcpy(&m->perm_fingerprint, &s[21], sizeof(std::uint64_t));
}

Status put_u32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
  if (!out) return Status::io_error("snapshot: write failed");
  return Status::ok();
}

Status put_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
  if (!out) return Status::io_error("snapshot: write failed");
  return Status::ok();
}

Status get_u32(std::istream& in, std::uint32_t* v, const char* what) {
  in.read(reinterpret_cast<char*>(v), sizeof *v);
  if (!in)
    return Status::io_error(std::string("snapshot: truncated ") + what);
  return Status::ok();
}

Status get_u64(std::istream& in, std::uint64_t* v, const char* what) {
  in.read(reinterpret_cast<char*>(v), sizeof *v);
  if (!in)
    return Status::io_error(std::string("snapshot: truncated ") + what);
  return Status::ok();
}

Status write_field(std::ostream& out, std::uint32_t tag, const void* data,
                   std::size_t bytes) {
  Status s = put_u32(out, tag);
  if (!s.is_ok()) return s;
  s = put_u64(out, static_cast<std::uint64_t>(bytes));
  if (!s.is_ok()) return s;
  if (bytes > 0) {
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(bytes));
    if (!out) return Status::io_error("snapshot: write failed");
  }
  return put_u32(out, crc32(data, bytes));
}

template <typename T>
Status write_array_field(std::ostream& out, std::uint32_t tag,
                         const std::vector<T>& v) {
  return write_field(out, tag, v.data(), v.size() * sizeof(T));
}

/// Read one field: verify the tag is the expected next one, the payload an
/// exact multiple of the element size, and the CRC intact.
template <typename T>
Status read_array_field(std::istream& in, std::uint32_t expect_tag,
                        const char* name, std::vector<T>* out) {
  std::uint32_t tag = 0;
  Status s = get_u32(in, &tag, "field tag");
  if (!s.is_ok()) return s;
  if (tag != expect_tag)
    return Status::io_error("snapshot: unexpected field tag " +
                            std::to_string(tag) + " (expected " +
                            std::to_string(expect_tag) + ", field " + name +
                            ")");
  std::uint64_t bytes = 0;
  s = get_u64(in, &bytes, "field length");
  if (!s.is_ok()) return s;
  if (bytes % sizeof(T) != 0)
    return Status::io_error(std::string("snapshot: field ") + name +
                            " length is not a multiple of its element size");
  // Grow the buffer in bounded chunks while the stream still delivers: a
  // corrupted length prefix must surface as a truncation error, not as an
  // attempt to allocate whatever 8 flipped bytes happen to encode.
  constexpr std::uint64_t kChunkBytes = 1u << 20;
  out->clear();
  for (std::uint64_t got = 0; got < bytes;) {
    const std::uint64_t step = std::min<std::uint64_t>(kChunkBytes, bytes - got);
    const std::size_t old = out->size();
    out->resize(old + static_cast<std::size_t>(step / sizeof(T)));
    in.read(reinterpret_cast<char*>(out->data() + old),
            static_cast<std::streamsize>(step));
    if (!in)
      return Status::io_error(std::string("snapshot: truncated field ") +
                              name);
    got += step;
  }
  std::uint32_t stored_crc = 0;
  s = get_u32(in, &stored_crc, "field crc");
  if (!s.is_ok()) return s;
  const std::uint32_t actual = crc32(out->data(), bytes);
  if (actual != stored_crc)
    return Status::data_corruption(std::string("snapshot: CRC mismatch in "
                                               "field ") +
                                   name);
  return Status::ok();
}

}  // namespace

namespace {

std::uint32_t crc32_sw(const void* data, std::size_t len) {
  static const CrcTable table;
  std::uint32_t c = 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  while (len >= 8) {
    std::uint32_t lo, hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = table.t[7][lo & 0xFFu] ^ table.t[6][(lo >> 8) & 0xFFu] ^
        table.t[5][(lo >> 16) & 0xFFu] ^ table.t[4][lo >> 24] ^
        table.t[3][hi & 0xFFu] ^ table.t[2][(hi >> 8) & 0xFFu] ^
        table.t[1][(hi >> 16) & 0xFFu] ^ table.t[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  for (std::size_t i = 0; i < len; ++i)
    c = table.t[0][(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PANGULU_SNAPSHOT_HW_CRC 1
/// SSE4.2 crc32 instruction path: bit-identical to crc32_sw (same
/// polynomial), roughly an order of magnitude faster. Compiled with a
/// per-function target so the translation unit itself needs no -msse4.2;
/// selected at runtime only when the host supports it.
__attribute__((target("sse4.2"))) std::uint32_t crc32_hw(const void* data,
                                                         std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t c = 0xFFFFFFFFu;
  while (len >= 8) {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    c = __builtin_ia32_crc32di(c, v);
    p += 8;
    len -= 8;
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (std::size_t i = 0; i < len; ++i)
    c32 = __builtin_ia32_crc32qi(c32, p[i]);
  return c32 ^ 0xFFFFFFFFu;
}
#endif

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len) {
#ifdef PANGULU_SNAPSHOT_HW_CRC
  static const bool have_hw = __builtin_cpu_supports("sse4.2");
  if (have_hw) return crc32_hw(data, len);
#endif
  return crc32_sw(data, len);
}

Status write_snapshot(std::ostream& out, const Snapshot& snap) {
  Status s = put_u32(out, kSnapshotMagic);
  if (!s.is_ok()) return s;
  s = put_u32(out, kSnapshotFormatVersion);
  if (!s.is_ok()) return s;
  s = put_u32(out, kSnapshotEndianTag);
  if (!s.is_ok()) return s;
  s = put_u32(out, static_cast<std::uint32_t>(kSnapshotFieldCount));
  if (!s.is_ok()) return s;

  std::int64_t slots[kMetaSlots];
  pack_meta(snap.meta, slots);
  s = write_field(out, kField_meta, slots, sizeof slots);
  if (!s.is_ok()) return s;
  s = write_array_field(out, kField_a_col_ptr, snap.a_col_ptr);
  if (!s.is_ok()) return s;
  s = write_array_field(out, kField_a_row_idx, snap.a_row_idx);
  if (!s.is_ok()) return s;
  s = write_array_field(out, kField_a_values, snap.a_values);
  if (!s.is_ok()) return s;
  s = write_array_field(out, kField_counters, snap.counters);
  if (!s.is_ok()) return s;
  s = write_array_field(out, kField_block_nnz, snap.block_nnz);
  if (!s.is_ok()) return s;
  s = write_array_field(out, kField_block_values, snap.block_values);
  if (!s.is_ok()) return s;
  s = write_array_field(out, kField_dirty_pos, snap.dirty_pos);
  if (!s.is_ok()) return s;
  out.flush();
  if (!out) return Status::io_error("snapshot: flush failed");
  return Status::ok();
}

Status read_snapshot(std::istream& in, Snapshot* out) {
  *out = Snapshot{};
  std::uint32_t magic = 0, version = 0, endian = 0, fields = 0;
  Status s = get_u32(in, &magic, "header");
  if (!s.is_ok()) return s;
  if (magic != kSnapshotMagic)
    return Status::io_error("snapshot: bad magic (not a PanguLU snapshot)");
  s = get_u32(in, &version, "header");
  if (!s.is_ok()) return s;
  if (version != kSnapshotFormatVersion)
    return Status::io_error("snapshot: format version " +
                            std::to_string(version) +
                            " is not the supported version " +
                            std::to_string(kSnapshotFormatVersion));
  s = get_u32(in, &endian, "header");
  if (!s.is_ok()) return s;
  if (endian != kSnapshotEndianTag)
    return Status::io_error(
        "snapshot: endianness mismatch (written on a foreign-endian host)");
  s = get_u32(in, &fields, "header");
  if (!s.is_ok()) return s;
  if (fields != static_cast<std::uint32_t>(kSnapshotFieldCount))
    return Status::io_error("snapshot: field count " + std::to_string(fields) +
                            " does not match format version " +
                            std::to_string(kSnapshotFormatVersion));

  std::vector<std::int64_t> slots;
  s = read_array_field(in, kField_meta, "meta", &slots);
  if (!s.is_ok()) return s;
  if (slots.size() != kMetaSlots)
    return Status::io_error("snapshot: meta section has wrong slot count");
  unpack_meta(slots.data(), &out->meta);
  s = read_array_field(in, kField_a_col_ptr, "a_col_ptr", &out->a_col_ptr);
  if (!s.is_ok()) return s;
  s = read_array_field(in, kField_a_row_idx, "a_row_idx", &out->a_row_idx);
  if (!s.is_ok()) return s;
  s = read_array_field(in, kField_a_values, "a_values", &out->a_values);
  if (!s.is_ok()) return s;
  s = read_array_field(in, kField_counters, "counters", &out->counters);
  if (!s.is_ok()) return s;
  s = read_array_field(in, kField_block_nnz, "block_nnz", &out->block_nnz);
  if (!s.is_ok()) return s;
  s = read_array_field(in, kField_block_values, "block_values",
                       &out->block_values);
  if (!s.is_ok()) return s;
  s = read_array_field(in, kField_dirty_pos, "dirty_pos", &out->dirty_pos);
  if (!s.is_ok()) return s;

  // Cheap internal consistency of the scalar section; the deep structural
  // cross-check against the recomputed blocking happens in resume_from.
  // Enum slots must name an enumerator (the bounds are each enum's last
  // value, pinned by static_asserts in Solver::resume_from) and flags must
  // be 0 or 1, so no out-of-range value reaches an options cast.
  const SnapshotMeta& m = out->meta;
  auto within = [](std::int64_t v, std::int64_t hi) {
    return v >= 0 && v <= hi;
  };
  if (m.n < 0 || m.nnz_a < 0 || m.block_size <= 0 || m.n_ranks < 1 ||
      m.n_tasks < 0 || m.tasks_done < 0 || m.tasks_done > m.n_tasks ||
      !within(m.incremental, 1) || !within(m.precision, 2) ||
      !within(m.policy, 2) || !within(m.schedule, 1) ||
      !within(m.verify_level, 2) || !within(m.abft_level, 2) ||
      !within(m.fill_reducing, 5) || !within(m.balance, 1) ||
      !within(m.use_mc64, 1) || !within(m.apply_scaling, 1))
    return Status::io_error("snapshot: meta scalars out of range");
  if (out->a_col_ptr.size() != static_cast<std::size_t>(m.n) + 1 ||
      out->a_row_idx.size() != static_cast<std::size_t>(m.nnz_a) ||
      out->a_values.size() != static_cast<std::size_t>(m.nnz_a))
    return Status::io_error("snapshot: matrix array sizes disagree with meta");
  if (out->counters.size() != out->block_nnz.size())
    return Status::io_error(
        "snapshot: counter array and block table sizes disagree");
  for (nnz_t b : out->block_nnz) {
    if (b < 0) return Status::io_error("snapshot: negative block nnz");
  }
  if (m.incremental) {
    // Incremental: dirty_pos must be ascending, duplicate-free, in range,
    // and the value payload must cover exactly the dirty blocks.
    nnz_t prev = -1;
    std::uint64_t dirty_total = 0;
    for (nnz_t pos : out->dirty_pos) {
      if (pos <= prev)
        return Status::io_error(
            "snapshot: dirty block list is not strictly ascending");
      if (pos < 0 || pos >= static_cast<nnz_t>(out->block_nnz.size()))
        return Status::io_error("snapshot: dirty block position " +
                                std::to_string(pos) + " outside the " +
                                std::to_string(out->block_nnz.size()) +
                                "-block table");
      dirty_total += static_cast<std::uint64_t>(
          out->block_nnz[static_cast<std::size_t>(pos)]);
      prev = pos;
    }
    if (dirty_total != out->block_values.size())
      return Status::io_error(
          "snapshot: dirty block value payload disagrees with the block nnz "
          "table");
  } else {
    if (!out->dirty_pos.empty())
      return Status::io_error(
          "snapshot: full snapshot carries a dirty block list");
    std::uint64_t total = 0;
    for (nnz_t b : out->block_nnz) total += static_cast<std::uint64_t>(b);
    if (total != out->block_values.size())
      return Status::io_error(
          "snapshot: block value payload disagrees with the block nnz table");
  }
  return Status::ok();
}

Status write_snapshot_file(const std::string& path, const Snapshot& snap) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) return Status::io_error("snapshot: cannot open " + tmp);
    Status s = write_snapshot(f, snap);
    if (!s.is_ok()) {
      f.close();
      std::remove(tmp.c_str());
      return s;
    }
    f.close();
    if (!f) {
      std::remove(tmp.c_str());
      return Status::io_error("snapshot: close failed for " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::io_error("snapshot: rename to " + path + " failed");
  }
  return Status::ok();
}

Status read_snapshot_file(const std::string& path, Snapshot* out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return Status::io_error("snapshot: cannot open " + path);
  return read_snapshot(f, out);
}

}  // namespace pangulu::io
