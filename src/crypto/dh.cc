#include "src/crypto/dh.h"

namespace discfs {

DhKeyPair DhKeyPair::Generate(const DsaParams& params,
                              const std::function<Bytes(size_t)>& rand_bytes) {
  BigNum q_minus_1 = BigNum::Sub(params.q, BigNum(1));
  BigNum x = BigNum::Add(BigNum::RandomBelow(q_minus_1, rand_bytes), BigNum(1));
  return DhKeyPair(params, std::move(x));
}

BigNum DhKeyPair::Pow(const BigNum& base, const BigNum& e) const {
  return group_ != nullptr ? group_->mont_p().ModExp(base, e)
                           : BigNum::ModExp(base, e, params_.p);
}

Bytes DhKeyPair::PublicValue() const {
  size_t width = params_.p.ToBytes().size();
  BigNum y = group_ != nullptr ? group_->PowG(x_)
                               : BigNum::ModExp(params_.g, x_, params_.p);
  return y.ToBytes(width);
}

Result<Bytes> DhKeyPair::SharedSecret(const Bytes& peer_public) const {
  BigNum y = BigNum::FromBytes(peer_public);
  BigNum p_minus_1 = BigNum::Sub(params_.p, BigNum(1));
  if (BigNum::Compare(y, BigNum(1)) <= 0 ||
      BigNum::Compare(y, p_minus_1) >= 0) {
    return InvalidArgumentError("DH peer value out of range");
  }
  // Subgroup membership: y^q == 1 (mod p).
  if (BigNum::Compare(Pow(y, params_.q), BigNum(1)) != 0) {
    return InvalidArgumentError("DH peer value not in order-q subgroup");
  }
  size_t width = params_.p.ToBytes().size();
  return Pow(y, x_).ToBytes(width);
}

}  // namespace discfs
