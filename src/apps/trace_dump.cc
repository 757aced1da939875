#include "src/apps/trace_dump.h"

namespace quanto {

namespace {

// Raw little-endian records in the payload (no container header; the AM
// type identifies the format and the src field identifies the node).
// Legacy records are 12 bytes with the 16-bit label encoding; wide
// records are 14 bytes with the 32-bit v2 label encoding; wide-node
// records are 16 bytes with the full 48-bit payload.
constexpr size_t kLegacyRecordBytes = 12;
constexpr size_t kWideRecordBytes = 14;
constexpr size_t kWideNodeRecordBytes = 16;

void PutCommonFields(PayloadBytes& out, const LogEntry& e) {
  out.push_back(e.type);
  out.push_back(e.res_id);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>((e.time >> (8 * i)) & 0xFF));
  }
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>((e.icount >> (8 * i)) & 0xFF));
  }
}

void AppendLegacyEntry(PayloadBytes& out, const LogEntry& e) {
  PutCommonFields(out, e);
  uint16_t payload = LegacyEntryPayload(e);
  out.push_back(static_cast<uint8_t>(payload & 0xFF));
  out.push_back(static_cast<uint8_t>(payload >> 8));
}

void AppendWideEntry(PayloadBytes& out, const LogEntry& e) {
  PutCommonFields(out, e);
  uint32_t payload = V2EntryPayload(e);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>((payload >> (8 * i)) & 0xFF));
  }
}

void AppendWideNodeEntry(PayloadBytes& out, const LogEntry& e) {
  PutCommonFields(out, e);
  for (int i = 0; i < 6; ++i) {
    out.push_back(static_cast<uint8_t>((e.payload >> (8 * i)) & 0xFF));
  }
}

bool ParseCommonFields(const PayloadBytes& in, size_t offset, size_t bytes,
                       LogEntry* e) {
  if (offset + bytes > in.size()) {
    return false;
  }
  const uint8_t* p = in.data() + offset;
  e->type = p[0];
  e->res_id = p[1];
  e->time = 0;
  e->icount = 0;
  for (int i = 0; i < 4; ++i) {
    e->time |= static_cast<uint32_t>(p[2 + i]) << (8 * i);
    e->icount |= static_cast<uint32_t>(p[6 + i]) << (8 * i);
  }
  return true;
}

bool ParseLegacyEntry(const PayloadBytes& in, size_t offset, LogEntry* e) {
  if (!ParseCommonFields(in, offset, kLegacyRecordBytes, e)) {
    return false;
  }
  const uint8_t* p = in.data() + offset;
  uint16_t legacy = static_cast<uint16_t>(p[10] | (p[11] << 8));
  e->payload = WideEntryPayload(*e, legacy);
  return true;
}

bool ParseWideEntry(const PayloadBytes& in, size_t offset, LogEntry* e) {
  if (!ParseCommonFields(in, offset, kWideRecordBytes, e)) {
    return false;
  }
  const uint8_t* p = in.data() + offset;
  uint32_t v2 = 0;
  for (int i = 0; i < 4; ++i) {
    v2 |= static_cast<uint32_t>(p[10 + i]) << (8 * i);
  }
  e->payload = WideFromV2Payload(*e, v2);
  return true;
}

bool ParseWideNodeEntry(const PayloadBytes& in, size_t offset, LogEntry* e) {
  if (!ParseCommonFields(in, offset, kWideNodeRecordBytes, e)) {
    return false;
  }
  const uint8_t* p = in.data() + offset;
  e->payload = 0;
  for (int i = 0; i < 6; ++i) {
    e->payload |= static_cast<uint64_t>(p[10 + i]) << (8 * i);
  }
  return true;
}

}  // namespace

size_t DumpRecordBytes(uint8_t am_type) {
  switch (am_type) {
    case TraceDumpService::kAmType:
      return kLegacyRecordBytes;
    case TraceDumpService::kAmTypeWide:
      return kWideRecordBytes;
    case TraceDumpService::kAmTypeWideNode:
      return kWideNodeRecordBytes;
    default:
      return 0;
  }
}

void EncodeDumpFrame(uint8_t am_type, const std::vector<LogEntry>& entries,
                     PayloadBytes* out) {
  for (const LogEntry& e : entries) {
    if (am_type == TraceDumpService::kAmType) {
      AppendLegacyEntry(*out, e);
    } else if (am_type == TraceDumpService::kAmTypeWide) {
      AppendWideEntry(*out, e);
    } else if (am_type == TraceDumpService::kAmTypeWideNode) {
      AppendWideNodeEntry(*out, e);
    }
  }
}

size_t DecodeDumpFrame(uint8_t am_type, const PayloadBytes& payload,
                       std::vector<LogEntry>* out) {
  size_t record = DumpRecordBytes(am_type);
  if (record == 0) {
    return 0;
  }
  size_t decoded = 0;
  for (size_t offset = 0; offset + record <= payload.size();
       offset += record) {
    LogEntry e{};
    bool ok = record == kLegacyRecordBytes
                  ? ParseLegacyEntry(payload, offset, &e)
                  : record == kWideRecordBytes
                        ? ParseWideEntry(payload, offset, &e)
                        : ParseWideNodeEntry(payload, offset, &e);
    if (ok) {
      out->push_back(e);
      ++decoded;
    }
  }
  return decoded;
}

TraceDumpService::TraceDumpService(Mote* mote, const Config& config)
    : mote_(mote), config_(config) {}

void TraceDumpService::Start() {
  if (timer_ != VirtualTimers::kInvalidTimer) {
    return;
  }
  // The flush timer belongs to the Logger activity: the profiler's own
  // radio traffic is charged to itself.
  act_t prev = mote_->cpu().activity().get();
  mote_->cpu().activity().set(mote_->Label(kActLogger));
  timer_ = mote_->timers().StartPeriodic(config_.flush_interval, 30,
                                         [this] { OnTimer(); });
  mote_->cpu().activity().set(prev);
}

void TraceDumpService::Stop() {
  if (timer_ != VirtualTimers::kInvalidTimer) {
    mote_->timers().Stop(timer_);
    timer_ = VirtualTimers::kInvalidTimer;
  }
}

void TraceDumpService::OnTimer() {
  if (mote_->logger().buffered() >= config_.min_batch) {
    ShipBatch(mote_->logger().buffered());
  }
}

void TraceDumpService::Flush() { ShipBatch(mote_->logger().buffered()); }

void TraceDumpService::ShipBatch(size_t max_entries) {
  if (in_flight_ || max_entries == 0 || !mote_->has_radio()) {
    return;
  }
  in_flight_ = true;
  // Paper, Section 4.4 (RAM mode): "periodically stops the logging, and
  // dumps the information to the serial port or to the radio" — logging
  // pauses during the dump so the dump's own events don't re-fill the
  // buffer faster than it drains.
  mote_->logger().SetEnabled(false);

  // Chain one packet per batch until the buffer is empty.
  send_next_ = [this] {
    // Pull up to one frame's worth of entries out of the node's RAM
    // buffer into a scratch chunk (they leave the node: the chunk models
    // "bits already on the air"; in bounded-archive mode the logger keeps
    // no second copy, so the dump path cannot regress to a full-trace
    // archive). Frames prefer the narrowest records that fit: a
    // legacy-encodable prefix ships as a (possibly short) legacy frame,
    // so only frames that *start* with a wide label pay the wide format;
    // likewise a v2-encodable prefix ships as a (possibly short) v2 wide
    // frame — exactly the pre-wide-node behaviour, since every entry was
    // v2-encodable then — and only a frame that *starts* with a wide-node
    // label pays the 16-byte records (any entries ride along behind it).
    size_t buffered = mote_->logger().buffered();
    if (buffered == 0) {
      mote_->logger().SetEnabled(true);
      in_flight_ = false;
      return;
    }
    size_t batch = buffered < kEntriesPerPacket ? buffered : kEntriesPerPacket;
    size_t first_wide = 0;
    while (first_wide < batch &&
           IsLegacyEntry(mote_->logger().BufferedAt(first_wide))) {
      ++first_wide;
    }
    uint8_t am_type;
    if (first_wide > 0) {
      am_type = kAmType;
      batch = first_wide;  // == batch when every candidate fits.
    } else if (IsV2Entry(mote_->logger().BufferedAt(0))) {
      am_type = kAmTypeWide;
      if (batch > kEntriesPerPacketWide) {
        batch = kEntriesPerPacketWide;
      }
      size_t first_wide_node = 1;
      while (first_wide_node < batch &&
             IsV2Entry(mote_->logger().BufferedAt(first_wide_node))) {
        ++first_wide_node;
      }
      batch = first_wide_node;
    } else {
      am_type = kAmTypeWideNode;
      if (batch > kEntriesPerPacketWideNode) {
        batch = kEntriesPerPacketWideNode;
      }
    }
    batch_.entries.clear();
    mote_->logger().DrainChunk(batch, &batch_);
    Packet packet;
    packet.dst = config_.collector;
    packet.am_type = am_type;
    EncodeDumpFrame(am_type, batch_.entries, &packet.payload);
    mote_->cpu().ChargeCycles(config_.marshal_cost);
    act_t prev = mote_->cpu().activity().get();
    mote_->cpu().activity().set(mote_->Label(kActLogger));
    bool queued = mote_->am().Send(packet, [this, batch](bool ok) {
      if (ok) {
        ++packets_sent_;
        entries_shipped_ += batch;
      }
      send_next_();
    });
    mote_->cpu().activity().set(prev);
    if (!queued) {
      // Radio queue full; try again at the next flush.
      mote_->logger().SetEnabled(true);
      in_flight_ = false;
    }
  };
  send_next_();
}

TraceCollector::TraceCollector(Mote* mote) : mote_(mote) {}

void TraceCollector::Start() {
  mote_->am().RegisterHandler(
      TraceDumpService::kAmType,
      [this](const Packet& packet) { OnPacket(packet); });
  mote_->am().RegisterHandler(
      TraceDumpService::kAmTypeWide,
      [this](const Packet& packet) { OnPacket(packet); });
  mote_->am().RegisterHandler(
      TraceDumpService::kAmTypeWideNode,
      [this](const Packet& packet) { OnPacket(packet); });
}

void TraceCollector::OnPacket(const Packet& packet) {
  ++packets_received_;
  DecodeDumpFrame(packet.am_type, packet.payload, &traces_[packet.src]);
}

const std::vector<LogEntry>& TraceCollector::TraceFrom(node_id_t node) const {
  auto it = traces_.find(node);
  return it != traces_.end() ? it->second : empty_;
}

std::vector<node_id_t> TraceCollector::Nodes() const {
  std::vector<node_id_t> out;
  for (const auto& [node, trace] : traces_) {
    out.push_back(node);
  }
  return out;
}

}  // namespace quanto
