// Package dataflash implements the onboard binary flight logger: a
// self-describing format in the style of ArduPilot's dataflash logs, where
// FMT records define each message's name and field list and data records
// carry timestamped float values.
//
// The message catalogue reproduces Table I of the paper exactly: the 40
// ArduCopter message types whose 342 available log variables (ALVs) form
// the known state variable list (KSVL) that ARES starts from.
package dataflash

// MessageDef describes one log message type.
type MessageDef struct {
	// Type is the binary record type byte.
	Type byte
	// Name is the message name, at most 4 characters (e.g. "ATT").
	Name string
	// Fields lists the value columns; every record carries one float per
	// field plus a timestamp.
	Fields []string
}

// NumFields returns the number of value columns (the ALV count of Table I).
func (d MessageDef) NumFields() int { return len(d.Fields) }

// fmtType is the record type byte reserved for FMT (format) records.
const fmtType = 0x80

// Catalogue returns the full ArduCopter message set of the paper's Table I:
// 40 message types, 342 ALVs. The returned slice is a fresh copy.
func Catalogue() []MessageDef {
	out := make([]MessageDef, len(catalogue))
	copy(out, catalogue)
	return out
}

// TotalALVs returns the catalogue-wide ALV count (342 per Table I).
func TotalALVs() int {
	total := 0
	for _, d := range catalogue {
		total += len(d.Fields)
	}
	return total
}

// catalogue is the Table I message set. Field names follow the ArduPilot log
// documentation; counts match the paper's ALV column exactly.
var catalogue = []MessageDef{
	{Type: 1, Name: "AHR2", Fields: []string{"Roll", "Pitch", "Yaw", "Alt", "Lat", "Lng", "Q1"}},                                                         // 7
	{Type: 2, Name: "ATT", Fields: []string{"DesRoll", "Roll", "DesPitch", "Pitch", "DesYaw", "Yaw", "ErrRP", "ErrYaw", "GyrX", "GyrY", "GyrZ", "AEKF"}}, // 12
	{Type: 3, Name: "BARO", Fields: []string{"Alt", "Press", "Temp", "CRt", "SMS"}},                                                                      // 5
	{Type: 4, Name: "CMD", Fields: []string{"CTot", "CNum", "CId", "Prm1", "Alt", "Dist"}},                                                               // 6
	{Type: 5, Name: "CTUN", Fields: []string{"ThI", "ThO", "ThH", "DAlt", "Alt", "CRt"}},                                                                 // 6
	{Type: 6, Name: "CURR", Fields: []string{"Volt", "Curr", "CurrTot", "EnrgTot", "VoltR", "Res", "SafetyV"}},                                           // 7
	{Type: 7, Name: "DU32", Fields: []string{"Id", "Value", "Aux"}},                                                                                      // 3
	{Type: 8, Name: "EKF1", Fields: []string{"Roll", "Pitch", "Yaw", "VN", "VE", "VD", "dPD", "PN", "PE", "PD", "GX", "GY", "GZ", "OH"}},                 // 14
	{Type: 9, Name: "EKF2", Fields: []string{"AX", "AY", "AZ", "VWN", "VWE", "MN", "ME", "MD", "MX", "MY", "MZ", "MI"}},                                  // 12
	{Type: 10, Name: "EKF3", Fields: []string{"IVN", "IVE", "IVD", "IPN", "IPE", "IPD", "IMX", "IMY", "IMZ", "IYAW", "IVT"}},                             // 11
	{Type: 11, Name: "EKF4", Fields: []string{"SV", "SP", "SH", "SM", "SVT", "errRP", "OFN", "OFE", "FS", "TS", "SS", "GPS", "PI", "AEKF"}},              // 14
	{Type: 12, Name: "EV", Fields: []string{"Id", "Code"}},                                                                                               // 2
	{Type: 13, Name: "FMT", Fields: []string{"Type", "Length", "Name", "Format", "Columns", "Units"}},                                                    // 6
	{Type: 14, Name: "GPA", Fields: []string{"VDop", "HAcc", "VAcc", "SAcc", "VV"}},                                                                      // 5
	{Type: 15, Name: "GPS", Fields: []string{"Status", "GMS", "GWk", "NSats", "HDop", "Lat", "Lng", "Alt", "Spd", "GCrs", "VZ", "Yaw", "U", "PD"}},       // 14
	{Type: 16, Name: "IMU", Fields: []string{"GyrX", "GyrY", "GyrZ", "AccX", "AccY", "AccZ", "EG", "EA", "T", "GH", "AH", "GHz"}},                        // 12
	{Type: 17, Name: "IMU2", Fields: []string{"GyrX", "GyrY", "GyrZ", "AccX", "AccY", "AccZ", "EG", "EA", "T", "GH", "AH", "GHz"}},                       // 12
	{Type: 18, Name: "MAG", Fields: []string{"MagX", "MagY", "MagZ", "OfsX", "OfsY", "OfsZ", "MOX", "MOY", "MOZ", "Health", "S"}},                        // 11
	{Type: 19, Name: "MAG2", Fields: []string{"MagX", "MagY", "MagZ", "OfsX", "OfsY", "OfsZ", "MOX", "MOY", "MOZ", "Health", "S"}},                       // 11
	{Type: 20, Name: "MAV", Fields: []string{"chan", "txp"}},                                                                                             // 2
	{Type: 21, Name: "MODE", Fields: []string{"Mode", "ModeNum", "Rsn"}},                                                                                 // 3
	{Type: 22, Name: "MOTB", Fields: []string{"LiftMax", "BatVolt", "BatRes", "ThLimit", "ThrOut"}},                                                      // 5
	{Type: 23, Name: "MSG", Fields: []string{"Message"}},                                                                                                 // 1
	{Type: 24, Name: "NKF1", Fields: []string{"Roll", "Pitch", "Yaw", "VN", "VE", "VD", "dPD", "PN", "PE", "PD", "GX", "GY", "GZ", "OH"}},                // 14
	{Type: 25, Name: "NKF2", Fields: []string{"AZbias", "GSX", "GSY", "GSZ", "VWN", "VWE", "MN", "ME", "MD", "MX", "MY", "MZ", "MI"}},                    // 13
	{Type: 26, Name: "NKF3", Fields: []string{"IVN", "IVE", "IVD", "IPN", "IPE", "IPD", "IMX", "IMY", "IMZ", "IYAW", "IVT", "RErr"}},                     // 12
	{Type: 27, Name: "NKF4", Fields: []string{"SV", "SP", "SH", "SM", "SVT", "errRP", "OFN", "OFE", "FS", "TS", "SS", "GPS", "PI"}},                      // 13
	{Type: 28, Name: "NTUN", Fields: []string{"WPDst", "WPBrg", "PErX", "PErY", "DVelX", "DVelY", "VelX", "VelY", "DAcX", "DAcY", "tv"}},                 // 11
	{Type: 29, Name: "PARM", Fields: []string{"Name", "Value", "Default"}},                                                                               // 3
	{Type: 30, Name: "PIDA", Fields: []string{"Tar", "Act", "P", "I", "D", "FF", "Dmod"}},                                                                // 7
	{Type: 31, Name: "PIDR", Fields: []string{"Tar", "Act", "P", "I", "D", "FF", "Dmod"}},                                                                // 7
	{Type: 32, Name: "PIDY", Fields: []string{"Tar", "Act", "P", "I", "D", "FF", "Dmod"}},                                                                // 7
	{Type: 33, Name: "PIDP", Fields: []string{"Tar", "Act", "P", "I", "D", "FF", "Dmod"}},                                                                // 7
	{Type: 34, Name: "PM", Fields: []string{"NLon", "NLoop", "MaxT", "Mem", "Load", "IntE", "ErrL"}},                                                     // 7
	{Type: 35, Name: "POS", Fields: []string{"Lat", "Lng", "Alt", "RelHomeAlt", "RelOriginAlt"}},                                                         // 5
	{Type: 36, Name: "RATE", Fields: []string{"RDes", "R", "ROut", "PDes", "P", "POut", "YDes", "Y", "YOut", "ADes", "A", "AOut", "AOutSlew"}},           // 13
	{Type: 37, Name: "RCIN", Fields: []string{"C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10", "C11", "C12", "C13", "C14", "C15"}},           // 15
	{Type: 38, Name: "RCOU", Fields: []string{"C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10", "C11", "C12", "C13"}},                         // 13
	{Type: 39, Name: "SIM", Fields: []string{"Roll", "Pitch", "Yaw", "Alt", "Lat", "Lng", "Q1"}},                                                         // 7
	{Type: 40, Name: "VIBE", Fields: []string{"VibeX", "VibeY", "VibeZ", "Clip0", "Clip1", "Clip2", "Health"}},                                           // 7
}
