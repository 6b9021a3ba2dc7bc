// Wire protocol for imsr_serve: length-prefixed, CRC-framed binary
// request/response messages over a byte stream (Unix-domain or TCP
// socket).
//
// Frame layout (little-endian, matching the checkpoint serializer):
//
//   [u32 payload_len][u32 crc32(payload)][payload_len bytes]
//
// The CRC covers the payload only, so a bit flip anywhere in the payload
// is caught before parsing (CRC-32 detects all single-bit errors) and a
// truncated stream simply never completes the frame. payload_len is
// bounded by kMaxFrameBytes — a corrupted length cannot make a reader
// buffer gigabytes. Payloads are parsed exclusively through the fallible
// TryRead* serialization layer: malformed bytes produce a decode error,
// never an abort, because the bytes come from the network.
//
// A framing violation (oversized length, CRC mismatch, trailing garbage)
// is not recoverable — the stream has lost sync and the connection must
// be dropped. Per-request problems (unknown user, overload) are NOT
// framing errors; they come back as ResponseFrames with a non-kOk
// status on a healthy connection.
#ifndef IMSR_SERVE_PROTOCOL_H_
#define IMSR_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "data/interaction.h"

namespace imsr::serve {

// Upper bound on a frame payload; chosen generously above the largest
// legitimate response (top_n is clamped far below this).
inline constexpr uint32_t kMaxFramePayload = 1u << 20;
inline constexpr size_t kFrameHeaderBytes = 8;  // u32 len + u32 crc

enum class ResponseStatus : uint8_t {
  kOk = 0,
  // Request was understood but could not be answered (unknown user,
  // invalid top_n); error holds the reason.
  kError = 1,
  // Admission control rejected the request: the admission queue was
  // full. The client may retry; nothing was dropped silently.
  kOverloaded = 2,
  // Server is draining after a shutdown request.
  kShuttingDown = 3,
};

const char* ResponseStatusName(ResponseStatus status);

struct RequestFrame {
  uint64_t request_id = 0;  // echoed verbatim in the response
  data::UserId user = -1;
  int top_n = 0;  // <= 0 falls back to the server's default
};

struct ResponseFrame {
  uint64_t request_id = 0;
  ResponseStatus status = ResponseStatus::kError;
  uint64_t snapshot_version = 0;  // snapshot that answered (0 if none)
  // Top-N (item, score), highest first; empty unless status == kOk.
  std::vector<std::pair<data::ItemId, float>> items;
  std::string error;  // reason when status != kOk
};

// Complete frames, header included — write the returned bytes verbatim.
std::vector<uint8_t> EncodeRequest(const RequestFrame& request);
std::vector<uint8_t> EncodeResponse(const ResponseFrame& response);

// Parse one CRC-verified frame *payload* (as produced by FrameAssembler).
// On failure: returns false, fills `error`, leaves `out` unspecified.
bool TryDecodeRequest(const std::vector<uint8_t>& payload,
                      RequestFrame* out, std::string* error);
bool TryDecodeResponse(const std::vector<uint8_t>& payload,
                       ResponseFrame* out, std::string* error);

// Incremental frame extraction from an arbitrarily-chunked byte stream
// (sockets deliver partial frames and coalesced frames alike). Feed
// bytes with Append, then call Next until it stops returning kFrame.
class FrameAssembler {
 public:
  enum class Result {
    kFrame,     // *payload holds the next complete, CRC-verified payload
    kNeedMore,  // header or payload still incomplete — Append more bytes
    kError,     // framing violation; drop the connection (fills *error)
  };

  void Append(const void* data, size_t size);
  Result Next(std::vector<uint8_t>* payload, std::string* error);

  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;  // bytes of buffer_ already handed out
};

}  // namespace imsr::serve

#endif  // IMSR_SERVE_PROTOCOL_H_
