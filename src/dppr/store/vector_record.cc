#include "dppr/store/vector_record.h"

namespace dppr {

void VectorRecord::SerializeTo(ByteWriter& writer) const {
  Serialize(writer, kind, sub, node, seconds, vec);
}

void VectorRecord::Serialize(ByteWriter& writer, VectorKind kind, SubgraphId sub,
                             NodeId node, double seconds,
                             const SparseVector& vec) {
  writer.PutU8(static_cast<uint8_t>(kind));
  writer.PutVarU64(sub);
  writer.PutVarU64(node);
  writer.PutDouble(seconds);
  // Nested blob framing: the receiver bounds-checks the vector payload
  // against the declared length before parsing it. SerializedBytes() is the
  // exact size of SerializeTo's output, so the blob header can be written
  // up front without buffering the vector twice.
  writer.PutVarU64(vec.SerializedBytes());
  vec.SerializeTo(writer);
}

VectorRecord::View VectorRecord::DeserializeView(ByteReader& reader) {
  View view;
  uint8_t kind = reader.GetU8();
  DPPR_CHECK_LT(kind, kNumVectorKinds);
  view.kind = static_cast<VectorKind>(kind);
  uint64_t sub = reader.GetVarU64();
  uint64_t node = reader.GetVarU64();
  // Same ranges MakeVectorKey enforces; rejecting here pins the failure on
  // the wire bytes rather than a later store insert.
  DPPR_CHECK_LT(sub, 1u << 30);
  DPPR_CHECK_LT(node, 1u << 30);
  view.sub = static_cast<SubgraphId>(sub);
  view.node = static_cast<NodeId>(node);
  view.seconds = reader.GetDouble();
  view.vec = reader.GetBlob();
  return view;
}

VectorRecord VectorRecord::Deserialize(ByteReader& reader) {
  View view = DeserializeView(reader);
  VectorRecord record;
  record.kind = view.kind;
  record.sub = view.sub;
  record.node = view.node;
  record.seconds = view.seconds;
  ByteReader vec_reader(view.vec.data(), view.vec.size());
  record.vec = SparseVector::Deserialize(vec_reader);
  // A declared length longer than the vector payload means trailing garbage
  // inside the record — corrupt, not just padded.
  DPPR_CHECK(vec_reader.AtEnd());
  return record;
}

}  // namespace dppr
