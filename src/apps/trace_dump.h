// Trace exfiltration over the radio (Section 4.4: the prototype
// "periodically stops the logging, and dumps the information to the serial
// port or to the radio").
//
// TraceDumpService batches buffered log entries into Active Messages and
// ships them to a collector node; the work runs under the Logger activity,
// so — like everything else Quanto does — the profiler's own radio cost is
// on the books. TraceCollector is the sink side: it reassembles per-node
// entry streams that feed the normal offline analysis, turning one mote
// into a network-wide profiler's measurement point.
#ifndef QUANTO_SRC_APPS_TRACE_DUMP_H_
#define QUANTO_SRC_APPS_TRACE_DUMP_H_

#include <map>
#include <vector>

#include "src/apps/mote.h"

namespace quanto {

class TraceDumpService {
 public:
  // Three wire formats, dispatched by AM type (the radio-side counterpart
  // of the v1/v2/v3 trace container, see docs/TRACE_FORMAT.md): the
  // legacy type carries the paper's 12-byte records with 16-bit legacy
  // labels and is used whenever a batch's entries all fit that encoding —
  // so ≤256-node workloads put byte-identical dump traffic on the air —
  // the wide type carries 14-byte records with 32-bit v2 labels (all
  // ≤65,534-mote workloads, byte-identical with the pre-wide-node
  // toolchain), and the wide-node type carries 16-byte records with
  // 48-bit payloads.
  static constexpr uint8_t kAmType = 0x7D;          // Legacy 12 B records.
  static constexpr uint8_t kAmTypeWide = 0x7E;      // Wide 14 B records.
  static constexpr uint8_t kAmTypeWideNode = 0x7F;  // Wide-node 16 B.
  // 8 legacy entries (96 B), 7 wide entries (98 B) or 6 wide-node entries
  // (96 B) per frame keep the payload within an 802.15.4 frame alongside
  // the headers.
  static constexpr size_t kEntriesPerPacket = 8;
  static constexpr size_t kEntriesPerPacketWide = 7;
  static constexpr size_t kEntriesPerPacketWideNode = 6;

  struct Config {
    node_id_t collector = 0;
    // How often to check for dumpable entries.
    Tick flush_interval = Milliseconds(500);
    // Don't bother sending until this many entries are waiting (a final
    // Flush() sends stragglers).
    size_t min_batch = kEntriesPerPacket;
    Cycles marshal_cost = 90;
  };

  TraceDumpService(Mote* mote, const Config& config);

  void Start();
  void Stop();

  // Sends any remaining buffered entries regardless of batch size.
  void Flush();

  uint64_t packets_sent() const { return packets_sent_; }
  uint64_t entries_shipped() const { return entries_shipped_; }

 private:
  void OnTimer();
  void ShipBatch(size_t max_entries);

  Mote* mote_;
  Config config_;
  VirtualTimers::TimerId timer_ = VirtualTimers::kInvalidTimer;
  // The packet-chaining continuation. Owned here (not by a shared_ptr
  // captured in its own closure, which leaks by reference cycle); the
  // service outlives any in-flight send by construction.
  std::function<void()> send_next_;
  // Scratch batch reused per frame (entries cleared, storage kept).
  TraceChunk batch_;
  bool in_flight_ = false;
  uint64_t packets_sent_ = 0;
  uint64_t entries_shipped_ = 0;
};

// The dump frame wire format, shared by TraceDumpService and
// TraceCollector: raw little-endian records with no header, the AM type
// naming the record layout. Bytes per record for a dump AM type, 0 for any
// other type.
size_t DumpRecordBytes(uint8_t am_type);
// Appends `entries` to `out` as records of the dump AM type `am_type`.
void EncodeDumpFrame(uint8_t am_type, const std::vector<LogEntry>& entries,
                     PayloadBytes* out);
// Appends the whole records of a received frame's payload to `out`, in
// order, and returns how many: payload.size() / DumpRecordBytes(am_type)
// at most. A trailing partial record decodes to nothing, as does a payload
// of any other AM type. The payload is untrusted radio input: nothing
// past its size is read.
size_t DecodeDumpFrame(uint8_t am_type, const PayloadBytes& payload,
                       std::vector<LogEntry>* out);

// Sink-side reassembly: collects dump packets from any number of nodes.
class TraceCollector {
 public:
  explicit TraceCollector(Mote* mote);

  void Start();

  // Entries received from `node`, in arrival order.
  const std::vector<LogEntry>& TraceFrom(node_id_t node) const;
  std::vector<node_id_t> Nodes() const;
  uint64_t packets_received() const { return packets_received_; }

 private:
  void OnPacket(const Packet& packet);

  Mote* mote_;
  std::map<node_id_t, std::vector<LogEntry>> traces_;
  std::vector<LogEntry> empty_;
  uint64_t packets_received_ = 0;
};

}  // namespace quanto

#endif  // QUANTO_SRC_APPS_TRACE_DUMP_H_
